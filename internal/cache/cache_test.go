package cache

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/mee"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/trace"
)

// memBackend is a plain in-memory Backend for testing the cache alone.
type memBackend struct {
	data       map[uint64][isa.LineSize]byte
	reads      int
	writes     int
	failReads  bool
	failWrites bool
}

func newMemBackend() *memBackend {
	return &memBackend{data: make(map[uint64][isa.LineSize]byte)}
}

func (b *memBackend) ReadLine(p isa.PAddr, dst []byte, _ *trace.Tab) error {
	if b.failReads {
		return fmt.Errorf("injected read failure")
	}
	b.reads++
	line := b.data[uint64(p)>>isa.LineShift]
	copy(dst, line[:])
	return nil
}

func (b *memBackend) WriteLine(p isa.PAddr, data []byte, _ *trace.Tab) error {
	if b.failWrites {
		return fmt.Errorf("injected write failure")
	}
	b.writes++
	var line [isa.LineSize]byte
	copy(line[:], data)
	b.data[uint64(p)>>isa.LineShift] = line
	return nil
}

func tiny() Config { return Config{SizeBytes: 8 * 1024, Ways: 4} } // 32 sets

func TestReadWriteRoundTrip(t *testing.T) {
	b := newMemBackend()
	c := MustNew(tiny(), b, &trace.Recorder{})
	data := []byte("some data crossing a line boundary......................xyz")
	if err := c.Write(60, data, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(60, len(data), trace.NoPayer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
}

func TestWriteBackOnlyOnEviction(t *testing.T) {
	b := newMemBackend()
	c := MustNew(tiny(), b, nil)
	if err := c.Write(0, []byte{1, 2, 3}, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if b.writes != 0 {
		t.Fatalf("write-back cache wrote through: %d writes", b.writes)
	}
	if err := c.FlushAll(trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if b.writes != 1 {
		t.Fatalf("flush produced %d backend writes, want 1", b.writes)
	}
	line := b.data[0]
	if line[0] != 1 || line[1] != 2 || line[2] != 3 {
		t.Fatalf("backend line %v", line[:4])
	}
}

func TestHitAvoidsBackend(t *testing.T) {
	b := newMemBackend()
	rec := &trace.Recorder{}
	c := MustNew(tiny(), b, rec)
	if _, err := c.Read(0x100, 8, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	readsAfterMiss := b.reads
	for i := 0; i < 10; i++ {
		if _, err := c.Read(0x100, 8, trace.NoPayer); err != nil {
			t.Fatal(err)
		}
	}
	if b.reads != readsAfterMiss {
		t.Fatalf("hits reached the backend: %d -> %d reads", readsAfterMiss, b.reads)
	}
	if rec.Get(trace.EvLLCHit) != 10 {
		t.Fatalf("llc_hit = %d, want 10", rec.Get(trace.EvLLCHit))
	}
}

func TestEvictionWritesDirtyVictim(t *testing.T) {
	b := newMemBackend()
	cfg := tiny()
	c := MustNew(cfg, b, nil)
	nsets := cfg.SizeBytes / isa.LineSize / cfg.Ways
	// Fill one set beyond associativity with dirty lines.
	for w := 0; w <= cfg.Ways; w++ {
		addr := isa.PAddr(w * nsets * isa.LineSize) // same set, different tags
		if err := c.Write(addr, []byte{byte(w + 1)}, trace.NoPayer); err != nil {
			t.Fatal(err)
		}
	}
	if b.writes == 0 {
		t.Fatal("over-filling a set evicted no dirty victim")
	}
	// The evicted line (LRU: the first written) must be readable with its
	// data intact.
	got, err := c.Read(0, 1, trace.NoPayer)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("evicted line lost data: %d", got[0])
	}
}

func TestFlushLineAndRange(t *testing.T) {
	b := newMemBackend()
	c := MustNew(tiny(), b, nil)
	if err := c.Write(0x200, []byte{9}, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushLine(0x200, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if b.writes != 1 {
		t.Fatalf("FlushLine wrote %d lines", b.writes)
	}
	valid, _ := c.Stats()
	if valid != 0 {
		t.Fatalf("line still cached after flush")
	}
	// Flushing a clean or absent line is a no-op.
	if err := c.FlushLine(0x8000, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0x400, bytes.Repeat([]byte{7}, 256), trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushRange(0x400, 256, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if _, dirty := c.Stats(); dirty != 0 {
		t.Fatal("dirty lines remain after FlushRange")
	}
}

func TestDisabledCacheWritesThrough(t *testing.T) {
	b := newMemBackend()
	c := MustNew(tiny(), b, nil)
	c.Enabled = false
	if err := c.Write(0, []byte{5}, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if b.writes == 0 {
		t.Fatal("disabled cache did not write through")
	}
	got, err := c.Read(0, 1, trace.NoPayer)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("uncached read = %d", got[0])
	}
}

func TestBackendErrorsPropagate(t *testing.T) {
	b := newMemBackend()
	c := MustNew(tiny(), b, nil)
	b.failReads = true
	if _, err := c.Read(0, 1, trace.NoPayer); err == nil {
		t.Fatal("read error swallowed")
	}
	b.failReads = false
	if err := c.Write(0, []byte{1}, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	b.failWrites = true
	if err := c.FlushAll(trace.NoPayer); err == nil {
		t.Fatal("write-back error swallowed")
	}
}

func TestInvalidConfigs(t *testing.T) {
	b := newMemBackend()
	bad := []Config{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 1024, Ways: 0},
		{SizeBytes: 1000, Ways: 3},    // not divisible into line-sized ways
		{SizeBytes: 64 * 12, Ways: 4}, // 3 sets: not a power of two
	}
	for i, cfg := range bad {
		if _, err := New(cfg, b, nil); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestCacheTransparency: any sequence of writes followed by reads through
// the cache behaves exactly like a flat memory.
func TestCacheTransparency(t *testing.T) {
	type op struct {
		Addr  uint16
		Data  byte
		Write bool
	}
	f := func(ops []op) bool {
		b := newMemBackend()
		c := MustNew(tiny(), b, nil)
		ref := make(map[uint16]byte)
		for _, o := range ops {
			if o.Write {
				if err := c.Write(isa.PAddr(o.Addr), []byte{o.Data}, trace.NoPayer); err != nil {
					return false
				}
				ref[o.Addr] = o.Data
			} else {
				got, err := c.Read(isa.PAddr(o.Addr), 1, trace.NoPayer)
				if err != nil {
					return false
				}
				if got[0] != ref[o.Addr] {
					return false
				}
			}
		}
		// After a full flush, the backend holds the same contents.
		if err := c.FlushAll(trace.NoPayer); err != nil {
			return false
		}
		for a, v := range ref {
			line := b.data[uint64(a)>>isa.LineShift]
			if line[a&isa.LineMask] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMissPathAllocatesNothing: a PRM line miss that evicts a dirty PRM
// victim (one MEE seal for the writeback, one open for the fetch) costs the
// host no allocation, through a real engine.
func TestMissPathAllocatesNothing(t *testing.T) {
	l := phys.Layout{DRAMSize: 64 << 10, PRMBase: 32 << 10, PRMSize: 16 << 10}
	rec := &trace.Recorder{}
	// One set, one way: each write to the other line misses and evicts.
	c := MustNew(Config{SizeBytes: isa.LineSize, Ways: 1}, mee.MustNew(phys.MustNew(l)), rec)
	lines := [2]isa.PAddr{l.PRMBase, l.PRMBase + isa.PageSize}
	b := []byte{0x5a}
	payer := trace.Payer{EID: 1, Core: 0}
	for _, p := range lines {
		if err := c.Write(p, b, payer); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	miss0, enc0, dec0 := rec.Get(trace.EvLLCMiss), rec.Get(trace.EvMEEEncrypt), rec.Get(trace.EvMEEDecrypt)
	var err error
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		i++ // the warm-up call hits the line written last; every later one misses
		if e := c.Write(lines[i%2], b, payer); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("PRM miss with dirty PRM victim allocates %.0f times, want 0", allocs)
	}
	miss, enc, dec := rec.Get(trace.EvLLCMiss)-miss0, rec.Get(trace.EvMEEEncrypt)-enc0, rec.Get(trace.EvMEEDecrypt)-dec0
	if miss != runs || enc != runs || dec != runs {
		t.Errorf("%d misses, %d seals, %d opens; want %d of each", miss, enc, dec, runs)
	}
}

// TestSettleOncePerCacheOp: one cache operation reaches the recorder as one
// batched charge per event. A cold 4 KiB read of sealed PRM lines logs one
// llc_miss and one mee_decrypt record, each carrying the 64 lines in its
// detail word, while the payer's counters and the clock move exactly as 64
// separate line charges would move them.
func TestSettleOncePerCacheOp(t *testing.T) {
	l := phys.Layout{DRAMSize: 64 << 10, PRMBase: 32 << 10, PRMSize: 16 << 10}
	rec := &trace.Recorder{}
	c := MustNew(tiny(), mee.MustNew(phys.MustNew(l)), rec)
	page := bytes.Repeat([]byte{0xa7}, isa.PageSize)
	if err := c.Write(l.PRMBase, page, trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(trace.NoPayer); err != nil { // seal every line, empty the LLC
		t.Fatal(err)
	}
	rec.EnableObservation(64)
	defer rec.DisableObservation()
	const lines = isa.PageSize / isa.LineSize
	payer := trace.Payer{EID: 3, Core: 1}
	clock := rec.Cycles()
	got := make([]byte, isa.PageSize)
	if err := c.ReadInto(l.PRMBase, got, payer); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("read back different bytes")
	}
	want := map[trace.Event]int64{trace.EvLLCMiss: trace.CostDRAMAccess, trace.EvMEEDecrypt: trace.CostMEELine}
	recs := rec.Log().Snapshot()
	if len(recs) != len(want) {
		t.Fatalf("one read logged %d records, want %d: %+v", len(recs), len(want), recs)
	}
	per := rec.PerEnclave()[payer.EID]
	var cycles int64
	for e, each := range want {
		r := trace.FilterRecords(recs, trace.ByEvent(e))
		if len(r) != 1 || r[0].Detail != lines || r[0].Cost != lines*each || r[0].EID != payer.EID || r[0].Core != int32(payer.Core) {
			t.Errorf("%v records %+v, want one of %d lines costing %d for %+v", e, r, lines, lines*each, payer)
		}
		if n := per.Get(e); n != lines {
			t.Errorf("payer's %v counter %d, want %d", e, n, lines)
		}
		cycles += lines * each
	}
	if d := rec.Cycles() - clock; d != cycles {
		t.Errorf("clock moved %d cycles, want %d", d, cycles)
	}
}
