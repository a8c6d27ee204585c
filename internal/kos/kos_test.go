package kos_test

import (
	"bytes"
	"slices"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/sgx"
)

func newKernel(t *testing.T) *kos.Kernel {
	t.Helper()
	return kos.New(sgx.MustNew(sgx.SmallConfig()))
}

func TestMmapAndAccess(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess()
	c := k.Machine().Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	v, err := p.Mmap(3*isa.PageSize, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("ordinary process memory")
	if err := c.Write(v+100, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(v+100, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
	// Fresh mappings are zeroed.
	z, _ := c.Read(v+isa.PageSize, 16)
	if !bytes.Equal(z, make([]byte, 16)) {
		t.Fatalf("fresh mapping not zeroed: %v", z)
	}
	// Distinct mmaps do not overlap.
	v2, err := p.Mmap(isa.PageSize, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if v2 >= v && v2 < v+3*isa.PageSize {
		t.Fatalf("overlapping mmap: %#x in [%#x, +3p)", uint64(v2), uint64(v))
	}
	if _, err := p.Mmap(0, isa.PermRW); err == nil {
		t.Fatal("zero-length mmap accepted")
	}
}

func TestProcessIsolationViaPageTables(t *testing.T) {
	k := newKernel(t)
	p1 := k.NewProcess()
	p2 := k.NewProcess()
	c := k.Machine().Core(0)
	if err := k.Schedule(c, p1); err != nil {
		t.Fatal(err)
	}
	v, err := p1.Mmap(isa.PageSize, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(v, []byte("p1 data")); err != nil {
		t.Fatal(err)
	}
	// Switching to p2, the same vaddr is unmapped.
	if err := k.Schedule(c, p2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(v, 4); !isa.IsFault(err, isa.FaultPF) {
		t.Fatalf("cross-process read returned %v, want #PF", err)
	}
}

func TestScheduleRefusedInEnclaveMode(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess()
	c := k.Machine().Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	s, err := k.Driver.CreateEnclave(0x100000, 2*isa.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	// (Entering requires a full build; the refusal path is checked via a
	// synthetic in-enclave state in the sgx tests. Here: schedule while out
	// of enclave mode always succeeds.)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
}

func TestIPCDelivery(t *testing.T) {
	k := newKernel(t)
	k.IPC.Send("ch", []byte("m1"))
	k.IPC.Send("ch", []byte("m2"))
	m, ok := k.IPC.TryRecv("ch")
	if !ok || string(m) != "m1" {
		t.Fatalf("recv %q %v", m, ok)
	}
	m, _ = k.IPC.TryRecv("ch")
	if string(m) != "m2" {
		t.Fatalf("recv %q", m)
	}
	if _, ok := k.IPC.TryRecv("ch"); ok {
		t.Fatal("recv from empty channel")
	}
}

// routeFunc is a kernel whose IPC router runs f; every other decision is
// honest.
type routeFunc struct {
	sgx.Honest
	f func(log [][]byte, msg []byte) [][]byte
}

func (r routeFunc) Route(_ string, log [][]byte, msg []byte) [][]byte { return r.f(log, msg) }

// The next three tests are §VII-B's IPC adversary, one lie each: the kernel
// "can drop an IPC request selectively or create a fake or old message".

func TestIPCAdversaryDrop(t *testing.T) {
	k := newKernel(t)
	k.Machine().SetHostile(routeFunc{f: func(log [][]byte, msg []byte) [][]byte {
		if len(log) == 1 {
			return nil // drop the first send only
		}
		return [][]byte{msg}
	}})
	k.IPC.Send("ch", []byte("init"))
	k.IPC.Send("ch", []byte("data"))
	m, ok := k.IPC.TryRecv("ch")
	if !ok || string(m) != "data" {
		t.Fatalf("drop failed: %q %v", m, ok)
	}
	if _, ok := k.IPC.TryRecv("ch"); ok {
		t.Fatal("dropped message was delivered")
	}
}

func TestIPCAdversarySelectiveDrop(t *testing.T) {
	k := newKernel(t)
	k.Machine().SetHostile(routeFunc{f: func(_ [][]byte, msg []byte) [][]byte {
		if bytes.HasPrefix(msg, []byte("INIT")) {
			return nil
		}
		return [][]byte{msg}
	}})
	k.IPC.Send("ch", []byte("INIT callback"))
	k.IPC.Send("ch", []byte("request"))
	m, ok := k.IPC.TryRecv("ch")
	if !ok || string(m) != "request" {
		t.Fatalf("selective drop failed: %q %v", m, ok)
	}
}

func TestIPCAdversaryForgeAndReplay(t *testing.T) {
	k := newKernel(t)
	k.Machine().SetHostile(routeFunc{f: func([][]byte, []byte) [][]byte {
		return [][]byte{[]byte("forged")}
	}})
	k.IPC.Send("ch", []byte("real"))
	if m, _ := k.IPC.TryRecv("ch"); string(m) != "forged" {
		t.Fatalf("forge failed: %q", m)
	}

	k2 := newKernel(t)
	k2.Machine().SetHostile(routeFunc{f: func(log [][]byte, _ []byte) [][]byte {
		return [][]byte{log[0]} // replay the first send in place of each
	}})
	k2.IPC.Send("ch", []byte("first"))
	k2.IPC.Send("ch", []byte("second"))
	_, _ = k2.IPC.TryRecv("ch")
	if m, _ := k2.IPC.TryRecv("ch"); string(m) != "first" {
		t.Fatalf("replay failed: %q", m)
	}
}

// TestIPCSendEnqueuesRoute: the router logs every send and enqueues exactly
// what the platform's Route returns — nothing for a selective drop, an
// earlier frame for a replay, the platform's own bytes for a forgery.
func TestIPCSendEnqueuesRoute(t *testing.T) {
	k := newKernel(t)
	sends := []string{"init", "data", "again", "real"}
	k.Machine().SetHostile(routeFunc{f: func(log [][]byte, msg []byte) [][]byte {
		if len(log) == 0 || !bytes.Equal(log[len(log)-1], msg) || string(msg) != sends[len(log)-1] {
			t.Errorf("Route saw log %q for send %q", log, msg)
		}
		switch string(msg) {
		case "init":
			return nil // drop the init call only
		case "again":
			return [][]byte{log[1]} // replay the previous send
		case "real":
			return [][]byte{[]byte("forged")}
		}
		return [][]byte{msg}
	}})
	for _, p := range sends {
		k.IPC.Send("ch", []byte(p))
	}
	var got []string
	for {
		m, ok := k.IPC.TryRecv("ch")
		if !ok {
			break
		}
		got = append(got, string(m))
	}
	if want := []string{"data", "data", "forged"}; !slices.Equal(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	var logged []string
	for _, m := range k.IPC.Eavesdrop("ch") {
		logged = append(logged, string(m))
	}
	if !slices.Equal(logged, sends) {
		t.Fatalf("kernel log %q, want every send %q", logged, sends)
	}
}

func TestIPCEavesdrop(t *testing.T) {
	k := newKernel(t)
	k.IPC.Send("ch", []byte("secret-plaintext"))
	log := k.IPC.Eavesdrop("ch")
	if len(log) != 1 || string(log[0]) != "secret-plaintext" {
		t.Fatalf("kernel log: %q", log)
	}
}
