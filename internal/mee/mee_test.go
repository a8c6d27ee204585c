package mee

import (
	"bytes"
	"testing"
	"testing/quick"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/trace"
)

func layout() phys.Layout {
	return phys.Layout{DRAMSize: 8 << 20, PRMBase: 2 << 20, PRMSize: 4 << 20}
}

// newEngine returns an engine, its DRAM, and a tab for its line charges.
func newEngine() (*Engine, *phys.Memory, *trace.Tab) {
	mem := phys.MustNew(layout())
	return MustNew(mem), mem, &trace.Tab{}
}

func line(fill byte) []byte { return bytes.Repeat([]byte{fill}, isa.LineSize) }

// readLine fetches the line at p into a fresh buffer, charging tab.
func readLine(e *Engine, p isa.PAddr, tab *trace.Tab) ([]byte, error) {
	dst := make([]byte, isa.LineSize)
	if err := e.ReadLine(p, dst, tab); err != nil {
		return nil, err
	}
	return dst, nil
}

func TestPRMRoundTrip(t *testing.T) {
	e, _, tab := newEngine()
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x42), tab); err != nil {
		t.Fatal(err)
	}
	got, err := readLine(e, p, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line(0x42)) {
		t.Fatalf("round trip lost data: %v", got[:8])
	}
}

func TestPRMIsCiphertextInDRAM(t *testing.T) {
	e, mem, tab := newEngine()
	p := layout().PRMBase
	pt := line(0x42)
	if err := e.WriteLine(p, pt, tab); err != nil {
		t.Fatal(err)
	}
	raw := mem.Read(p, isa.LineSize)
	if bytes.Equal(raw, pt) {
		t.Fatal("PRM line stored as plaintext")
	}
}

func TestNonPRMPassesThrough(t *testing.T) {
	e, mem, tab := newEngine()
	p := isa.PAddr(0x1000)
	if err := e.WriteLine(p, line(0x17), tab); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Read(p, isa.LineSize), line(0x17)) {
		t.Fatal("non-PRM line not stored raw")
	}
	rec := &trace.Recorder{}
	rec.Settle(tab)
	if rec.Get(trace.EvMEEEncrypt) != 0 {
		t.Fatal("non-PRM write charged an MEE encryption")
	}
}

func TestTamperDetection(t *testing.T) {
	e, mem, tab := newEngine()
	p := layout().PRMBase + 4096
	if err := e.WriteLine(p, line(0x99), tab); err != nil {
		t.Fatal(err)
	}
	mem.TamperByte(p+5, 0x01) // physical attacker flips a bit
	_, err := readLine(e, p, tab)
	if err == nil {
		t.Fatal("tampered line read succeeded")
	}
	if !isa.IsFault(err, isa.FaultMC) {
		t.Fatalf("tamper raised %v, want #MC", err)
	}
	rec := &trace.Recorder{}
	rec.Settle(tab)
	if rec.Get(trace.EvFaultMC) != 1 {
		t.Fatal("machine check not counted")
	}
}

func TestFreshLineReadsZero(t *testing.T) {
	e, _, tab := newEngine()
	got, err := readLine(e, layout().PRMBase+8192, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, isa.LineSize)) {
		t.Fatalf("fresh PRM line = %v", got[:8])
	}
}

func TestVersioningPreventsCiphertextReplay(t *testing.T) {
	e, mem, tab := newEngine()
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x01), tab); err != nil {
		t.Fatal(err)
	}
	old := mem.Read(p, isa.LineSize) // attacker snapshots ciphertext v1
	if err := e.WriteLine(p, line(0x02), tab); err != nil {
		t.Fatal(err)
	}
	mem.Write(p, old) // attacker replays the stale ciphertext
	if _, err := readLine(e, p, tab); err == nil {
		t.Fatal("replayed stale ciphertext accepted")
	}
}

func TestDisabledEngineStoresPlaintext(t *testing.T) {
	e, mem, tab := newEngine()
	e.Enabled = false
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x33), tab); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Read(p, isa.LineSize), line(0x33)) {
		t.Fatal("disabled engine still encrypted")
	}
}

func TestDropPageForgetsMetadata(t *testing.T) {
	e, mem, tab := newEngine()
	p := layout().PRMBase
	if err := e.WriteLine(p, line(0x55), tab); err != nil {
		t.Fatal(err)
	}
	// Page recycled: DRAM zeroed, metadata dropped; the next read must not
	// fail integrity, it must see a fresh zero line.
	mem.Zero(p, isa.PageSize)
	e.DropPage(p)
	got, err := readLine(e, p, tab)
	if err != nil {
		t.Fatalf("recycled page read: %v", err)
	}
	if !bytes.Equal(got, make([]byte, isa.LineSize)) {
		t.Fatalf("recycled page not zero: %v", got[:8])
	}
}

// TestRecycledPageNeverReusesNonce: a recycled EPC page's lines must not be
// sealed under nonces the page's previous contents used. Under a repeated
// GCM nonce and key, the two DRAM ciphertexts XOR to the XOR of the two
// plaintexts, so a physical attacker who knows the old contents reads the
// new ones.
func TestRecycledPageNeverReusesNonce(t *testing.T) {
	e, mem, tab := newEngine()
	p := layout().PRMBase + 3*isa.LineSize
	a, b := line(0xA5), line(0x3C)
	if err := e.WriteLine(p, a, tab); err != nil {
		t.Fatal(err)
	}
	ctA := mem.Read(p, isa.LineSize)
	mem.Zero(p.PageBase(), isa.PageSize)
	e.DropPage(p)
	if err := e.WriteLine(p, b, tab); err != nil {
		t.Fatal(err)
	}
	ctB := mem.Read(p, isa.LineSize)
	leak := true
	for i := range ctA {
		if ctA[i]^ctB[i] != a[i]^b[i] {
			leak = false
			break
		}
	}
	if leak {
		t.Fatal("recycled line resealed under a used nonce: ciphertexts XOR to the plaintexts' XOR")
	}
	if got, err := readLine(e, p, tab); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("recycled line reads %v, %v; want the new contents", got[:8], err)
	}
}

func TestUnalignedRejected(t *testing.T) {
	e, _, tab := newEngine()
	if err := e.WriteLine(layout().PRMBase+1, line(0), tab); err == nil {
		t.Fatal("unaligned write accepted")
	}
	if _, err := readLine(e, layout().PRMBase+7, tab); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if err := e.WriteLine(layout().PRMBase, []byte{1, 2}, tab); err == nil {
		t.Fatal("short write accepted")
	}
	if err := e.ReadLine(layout().PRMBase, make([]byte, 2), tab); err == nil {
		t.Fatal("short fetch buffer accepted")
	}
}

// Property: for arbitrary line contents and PRM line indices, write-read is
// the identity, and the ciphertext never equals the plaintext.
func TestRoundTripProperty(t *testing.T) {
	e, mem, tab := newEngine()
	f := func(content [isa.LineSize]byte, idx uint16) bool {
		p := layout().PRMBase + isa.PAddr(idx)*isa.LineSize
		if err := e.WriteLine(p, content[:], tab); err != nil {
			return false
		}
		got, err := readLine(e, p, tab)
		if err != nil {
			return false
		}
		return bytes.Equal(got, content[:]) && !bytes.Equal(mem.Read(p, isa.LineSize), content[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
