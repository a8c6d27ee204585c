package channel_test

import (
	"bytes"
	"testing"

	"nestedenclave/internal/channel"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// routeFunc is a kernel whose IPC router runs f; every other decision is
// honest.
type routeFunc struct {
	sgx.Honest
	f func(log [][]byte, msg []byte) [][]byte
}

func (r routeFunc) Route(_ string, log [][]byte, msg []byte) [][]byte { return r.f(log, msg) }

func TestGCMRoundTrip(t *testing.T) {
	k := kos.New(sgx.MustNew(sgx.SmallConfig()))
	key := [16]byte{1, 2, 3}
	tx, err := channel.NewGCM(k.IPC, "a2b", key)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := channel.NewGCM(k.IPC, "a2b", key)
	if err != nil {
		t.Fatal(err)
	}
	tx.Send([]byte("hello"))
	tx.Send([]byte("world"))
	for _, want := range []string{"hello", "world"} {
		got, ok, err := rx.Recv()
		if err != nil || !ok || string(got) != want {
			t.Fatalf("recv %q %v %v, want %q", got, ok, err, want)
		}
	}
	if _, ok, _ := rx.Recv(); ok {
		t.Fatal("recv from empty channel")
	}
}

func TestGCMConfidentialityFromKernel(t *testing.T) {
	k := kos.New(sgx.MustNew(sgx.SmallConfig()))
	tx, _ := channel.NewGCM(k.IPC, "a2b", [16]byte{9})
	secret := []byte("the-kernel-must-not-read-this")
	tx.Send(secret)
	for _, m := range k.IPC.Eavesdrop("a2b") {
		if bytes.Contains(m, secret[:8]) {
			t.Fatal("plaintext visible to the kernel")
		}
	}
}

func TestGCMDetectsForgeAndReplay(t *testing.T) {
	k := kos.New(sgx.MustNew(sgx.SmallConfig()))
	key := [16]byte{7}
	// Forge: kernel substitutes its own bytes.
	k.Machine().SetHostile(routeFunc{f: func(log [][]byte, msg []byte) [][]byte {
		return [][]byte{[]byte("forged-ciphertext")}
	}})
	tx, _ := channel.NewGCM(k.IPC, "a2b", key)
	rx, _ := channel.NewGCM(k.IPC, "a2b", key)
	tx.Send([]byte("msg"))
	if _, ok, err := rx.Recv(); !ok || err == nil {
		t.Fatal("forged message accepted")
	}
	// Replay: kernel re-delivers the previous ciphertext; the sequence
	// number in the nonce rejects it.
	k2 := kos.New(sgx.MustNew(sgx.SmallConfig()))
	k2.Machine().SetHostile(routeFunc{f: func(log [][]byte, msg []byte) [][]byte {
		if len(log) >= 2 {
			return [][]byte{log[len(log)-2]} // the previous send again
		}
		return [][]byte{msg}
	}})
	tx2, _ := channel.NewGCM(k2.IPC, "c", key)
	rx2, _ := channel.NewGCM(k2.IPC, "c", key)
	tx2.Send([]byte("first"))
	tx2.Send([]byte("second"))
	if got, ok, err := rx2.Recv(); !ok || err != nil || string(got) != "first" {
		t.Fatalf("first recv: %q %v %v", got, ok, err)
	}
	if _, ok, err := rx2.Recv(); !ok || err == nil {
		t.Fatal("replayed message accepted")
	}
}

func TestGCMCannotDetectSilentDrop(t *testing.T) {
	// The residual weakness of the baseline: a dropped message looks
	// exactly like no message.
	k := kos.New(sgx.MustNew(sgx.SmallConfig()))
	k.Machine().SetHostile(routeFunc{f: func([][]byte, []byte) [][]byte { return nil }})
	key := [16]byte{3}
	tx, _ := channel.NewGCM(k.IPC, "a2b", key)
	rx, _ := channel.NewGCM(k.IPC, "a2b", key)
	tx.Send([]byte("the-initialization-call"))
	_, ok, err := rx.Recv()
	if ok || err != nil {
		t.Fatalf("drop should be silent: ok=%v err=%v", ok, err)
	}
}

// outerRig builds an outer enclave with two peer inners and returns cores
// positioned OUTSIDE any enclave plus the enclaves for ecall-driven tests.
type outerRig struct {
	m        *sgx.Machine
	k        *kos.Kernel
	host     *sdk.Host
	outer    *sdk.Enclave
	in1, in2 *sdk.Enclave
	chBase   isa.VAddr
	outerImg *sdk.Image
}

func newOuterRig(t testing.TB, heapPages int) *outerRig {
	t.Helper()
	m := sgx.MustNew(sgx.SmallConfig())
	k := kos.New(m)
	host := sdk.NewHost(k)

	l := sdk.DefaultLayout()
	l.HeapPages = heapPages
	outerImg := sdk.NewImage("outer", 0x2000_0000, l)
	in1Img := sdk.NewImage("in1", 0x1000_0000, sdk.DefaultLayout())
	in2Img := sdk.NewImage("in2", 0x4000_0000, sdk.DefaultLayout())

	registerChannelCalls(in1Img)
	registerChannelCalls(in2Img)
	registerChannelCalls(outerImg)
	registerOuterMemCalls(outerImg)

	author := measure.MustNewAuthor()
	so := outerImg.Sign(author, nil, []measure.Digest{in1Img.Measure(), in2Img.Measure()})
	s1 := in1Img.Sign(author, []measure.Digest{outerImg.Measure()}, nil)
	s2 := in2Img.Sign(author, []measure.Digest{outerImg.Measure()}, nil)

	outer, err := host.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	in1, err := host.Load(s1)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := host.Load(s2)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Associate(in1, outer); err != nil {
		t.Fatal(err)
	}
	if err := host.Associate(in2, outer); err != nil {
		t.Fatal(err)
	}
	return &outerRig{m: m, k: k, host: host, outer: outer, in1: in1, in2: in2,
		chBase: outerImg.HeapBase(), outerImg: outerImg}
}

// registerChannelCalls adds entry points that operate an OuterChannel whose
// base/size arrive in the arguments.
func registerChannelCalls(img *sdk.Image) {
	decode := func(args []byte) (*channel.OuterChannel, []byte, error) {
		base := isa.VAddr(le64(args[:8]))
		size := le64(args[8:16])
		ch, err := channel.NewOuter(base, size)
		return ch, args[16:], err
	}
	img.RegisterECall("ch_init", func(env *sdk.Env, args []byte) ([]byte, error) {
		ch, _, err := decode(args)
		if err != nil {
			return nil, err
		}
		return nil, ch.Init(env.C)
	})
	img.RegisterECall("ch_send", func(env *sdk.Env, args []byte) ([]byte, error) {
		ch, payload, err := decode(args)
		if err != nil {
			return nil, err
		}
		ok, err := ch.Send(env.C, payload)
		if err != nil {
			return nil, err
		}
		if !ok {
			return []byte{0}, nil
		}
		return []byte{1}, nil
	})
	img.RegisterECall("ch_recv", func(env *sdk.Env, args []byte) ([]byte, error) {
		ch, _, err := decode(args)
		if err != nil {
			return nil, err
		}
		payload, ok, err := ch.Recv(env.C)
		if err != nil {
			return nil, err
		}
		if !ok {
			return []byte{0}, nil
		}
		return append([]byte{1}, payload...), nil
	})
}

func le64(b []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(b[i]) << (8 * i)
	}
	return x
}

func chArgs(base isa.VAddr, size uint64, payload []byte) []byte {
	b := make([]byte, 16, 16+len(payload))
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(base) >> (8 * i))
		b[8+i] = byte(size >> (8 * i))
	}
	return append(b, payload...)
}

func TestOuterChannelBetweenPeerInners(t *testing.T) {
	r := newOuterRig(t, 16)
	size := uint64(4096)
	if _, err := r.outer.ECall("ch_init", chArgs(r.chBase, size, nil)); err != nil {
		t.Fatal(err)
	}
	// Inner 1 sends through the outer enclave's memory...
	msg := []byte("plaintext-in-protected-memory")
	out, err := r.in1.ECall("ch_send", chArgs(r.chBase, size, msg))
	if err != nil || out[0] != 1 {
		t.Fatalf("send: %v %v", out, err)
	}
	// ...and inner 2 receives it.
	got, err := r.in2.ECall("ch_recv", chArgs(r.chBase, size, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || !bytes.Equal(got[1:], msg) {
		t.Fatalf("recv: %v", got)
	}
	// Empty now.
	got, err = r.in2.ECall("ch_recv", chArgs(r.chBase, size, nil))
	if err != nil || got[0] != 0 {
		t.Fatalf("recv from empty: %v %v", got, err)
	}
}

func TestOuterChannelInvisibleToKernel(t *testing.T) {
	r := newOuterRig(t, 16)
	size := uint64(4096)
	if _, err := r.outer.ECall("ch_init", chArgs(r.chBase, size, nil)); err != nil {
		t.Fatal(err)
	}
	secret := []byte("kernel-cannot-see-or-drop-this!!")
	if _, err := r.in1.ECall("ch_send", chArgs(r.chBase, size, secret)); err != nil {
		t.Fatal(err)
	}
	// The kernel reads the channel memory: abort-page 0xFF everywhere.
	c := r.m.Core(0)
	if err := r.k.Schedule(c, r.host.Proc); err != nil {
		t.Fatal(err)
	}
	snoop, err := c.Read(r.chBase, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range snoop {
		if b != 0xFF {
			t.Fatalf("kernel observed channel bytes: %v", snoop[:8])
		}
	}
	// A kernel write cannot corrupt the message either.
	if err := c.Write(r.chBase+16, []byte("corruption")); err != nil {
		t.Fatal(err)
	}
	got, err := r.in2.ECall("ch_recv", chArgs(r.chBase, size, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || !bytes.Equal(got[1:], secret) {
		t.Fatalf("message corrupted by kernel write: %v", got)
	}
}

func TestOuterChannelBackpressureAndWrap(t *testing.T) {
	r := newOuterRig(t, 16)
	size := uint64(64)
	if _, err := r.outer.ECall("ch_init", chArgs(r.chBase, size, nil)); err != nil {
		t.Fatal(err)
	}
	// Fill beyond capacity: sends start returning full.
	payload := bytes.Repeat([]byte{0xCC}, 20)
	sent := 0
	for i := 0; i < 10; i++ {
		out, err := r.in1.ECall("ch_send", chArgs(r.chBase, size, payload))
		if err != nil {
			t.Fatal(err)
		}
		if out[0] == 1 {
			sent++
		}
	}
	if sent == 0 || sent >= 10 {
		t.Fatalf("backpressure broken: sent %d of 10", sent)
	}
	// Drain and refill repeatedly to exercise wrap-around.
	for round := 0; round < 5; round++ {
		for {
			got, err := r.in2.ECall("ch_recv", chArgs(r.chBase, size, nil))
			if err != nil {
				t.Fatal(err)
			}
			if got[0] == 0 {
				break
			}
			if !bytes.Equal(got[1:], payload) {
				t.Fatalf("round %d corrupted payload: %v", round, got[1:])
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := r.in1.ECall("ch_send", chArgs(r.chBase, size, payload)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestOuterChannelRejectsOversized(t *testing.T) {
	r := newOuterRig(t, 16)
	size := uint64(64)
	if _, err := r.outer.ECall("ch_init", chArgs(r.chBase, size, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.in1.ECall("ch_send", chArgs(r.chBase, size, make([]byte, 100))); err == nil {
		t.Fatal("oversized message accepted")
	}
	if _, err := channel.NewOuter(0x1000, 13); err == nil {
		t.Fatal("unaligned ring size accepted")
	}
}
