package channel

import (
	"errors"
	"fmt"
	"testing"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/sgx"
)

func reliablePair(t *testing.T, window int) (*kos.Kernel, *ReliableChannel, *ReliableChannel) {
	t.Helper()
	k := kos.New(sgx.MustNew(sgx.SmallConfig()))
	key := [16]byte{1, 2, 3}
	tx, err := NewReliable(k.IPC, "rel", key, window)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReliable(k.IPC, "rel", key, window)
	if err != nil {
		t.Fatal(err)
	}
	return k, tx, rx
}

// routeFunc is a kernel whose IPC router runs f; every other decision is
// honest.
type routeFunc struct {
	sgx.Honest
	f func(log [][]byte, msg []byte) [][]byte
}

func (r routeFunc) Route(_ string, log [][]byte, msg []byte) [][]byte { return r.f(log, msg) }

// dropFirst drops the first send on the channel.
var dropFirst = routeFunc{f: func(log [][]byte, msg []byte) [][]byte {
	if len(log) == 1 {
		return nil
	}
	return [][]byte{msg}
}}

func TestReliableRoundTrip(t *testing.T) {
	_, tx, rx := reliablePair(t, 0)
	for i := 0; i < 10; i++ {
		tx.Send([]byte(fmt.Sprintf("msg-%d", i)))
	}
	for i := 0; i < 10; i++ {
		pt, ok, err := rx.Recv()
		if err != nil || !ok {
			t.Fatalf("recv %d: ok=%v err=%v", i, ok, err)
		}
		if string(pt) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("recv %d: got %q", i, pt)
		}
	}
	if _, ok, _ := rx.Recv(); ok {
		t.Fatal("phantom message")
	}
}

func TestReliableDetectsAndRepairsDrop(t *testing.T) {
	k, tx, rx := reliablePair(t, 0)
	k.Machine().SetHostile(dropFirst)
	tx.Send([]byte("first"))  // dropped by the kernel
	tx.Send([]byte("second")) // arrives, revealing the gap

	_, ok, err := rx.Recv()
	var ge *GapError
	if !ok || !errors.As(err, &ge) {
		t.Fatalf("expected gap error, got ok=%v err=%v", ok, err)
	}
	if ge.Want != 0 || ge.Corrupt {
		t.Fatalf("gap = %+v, want frame 0 dropped", ge)
	}
	if !errors.Is(err, chaos.ErrTransient) {
		t.Fatal("gap error not classified transient")
	}
	if err := tx.Retransmit(ge.Want); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"first", "second"} {
		pt, ok, err := rx.Recv()
		if err != nil || !ok || string(pt) != want {
			t.Fatalf("after repair, recv %d: %q ok=%v err=%v", i, pt, ok, err)
		}
	}
}

func TestReliableRepairLoopUnderChaos(t *testing.T) {
	// The whole stream is sent before anything is received, so the
	// retransmit window must cover it.
	k, tx, rx := reliablePair(t, 256)
	inj := chaos.New(chaos.Config{Seed: 12345, Sites: map[chaos.Site]chaos.SiteConfig{
		chaos.SiteIPCDrop:    {Prob: 0.15},
		chaos.SiteIPCDup:     {Prob: 0.15},
		chaos.SiteIPCCorrupt: {Prob: 0.15},
	}}, nil)
	k.Machine().SetHostile(inj)

	// Interleave sending and receiving (the realistic pattern — repair
	// frames must not land behind an unbounded backlog).
	const n = 200
	got := 0
	recvOne := func() bool {
		pt, ok, err := rx.RecvRepaired(tx, 16)
		if err != nil {
			t.Fatalf("after %d messages: %v", got, err)
		}
		if !ok {
			return false
		}
		if string(pt) != fmt.Sprintf("payload-%04d", got) {
			t.Fatalf("message %d: got %q", got, pt)
		}
		got++
		return true
	}
	for i := 0; i < n; i++ {
		tx.Send([]byte(fmt.Sprintf("payload-%04d", i)))
		for recvOne() {
		}
	}
	for got < n {
		if !recvOne() {
			// The tail was dropped with nothing after it to reveal the
			// gap; nudge with a retransmit.
			if terr := tx.Retransmit(uint64(got)); terr != nil {
				t.Fatalf("tail repair: %v", terr)
			}
		}
	}
	stats := inj.Stats()
	total := int64(0)
	for _, s := range stats {
		total += s.Injected
	}
	if total == 0 {
		t.Fatal("chaos injected nothing; test is vacuous")
	}
	t.Logf("chaos stats: %+v", stats)
}

func TestReliableWindowEviction(t *testing.T) {
	_, tx, _ := reliablePair(t, 4)
	for i := 0; i < 10; i++ {
		tx.Send([]byte("x"))
	}
	if err := tx.Retransmit(0); err == nil {
		t.Fatal("retransmit of evicted frame succeeded")
	}
	if err := tx.Retransmit(9); err != nil {
		t.Fatalf("retransmit of recent frame failed: %v", err)
	}
}

func TestReliableDuplicateSilentlyDropped(t *testing.T) {
	_, tx, rx := reliablePair(t, 0)
	tx.Send([]byte("once"))
	if _, ok, err := rx.Recv(); !ok || err != nil {
		t.Fatalf("first recv: ok=%v err=%v", ok, err)
	}
	if err := tx.Retransmit(0); err != nil {
		t.Fatal(err)
	}
	tx.Send([]byte("twice"))
	pt, ok, err := rx.Recv()
	if err != nil || !ok || string(pt) != "twice" {
		t.Fatalf("dup not skipped: %q ok=%v err=%v", pt, ok, err)
	}
}
