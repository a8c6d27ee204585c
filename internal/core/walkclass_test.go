package core_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// Walks run in parallel under the machine's read lock, so everything the
// walk path reports must be decided per walk, never from machine-global
// state another core can move. These tests pin that under -race: the
// nested/baseline walk split, per-enclave memory-hierarchy billing, and the
// parenting of pager spans, each with two cores walking at once.

const walkCalls = 20000

// loadWalkPair loads an inner/outer pair whose inner "read_outer" reads the
// outer's first heap page (one Figure-6 nested walk per call) and whose
// outer "read_own" reads the same page (one baseline walk per call).
func loadWalkPair(t *testing.T, r *rig) (inner, outer *sdk.Enclave, heap isa.VAddr) {
	t.Helper()
	inner, outer = loadPair(t, r, 0x1000_0000, 0x2000_0000)
	heap = outer.Image().HeapBase()
	if _, err := outer.ECall("write", writeArgs(heap, []byte("shared"))); err != nil {
		t.Fatal(err)
	}
	read := func(env *sdk.Env, args []byte) ([]byte, error) { return env.Read(heap, 6) }
	inner.Image().RegisterECall("read_outer", read)
	outer.Image().RegisterECall("read_own", read)
	return inner, outer, heap
}

// runWalkLoad drives walkCalls calls of each entry point, one goroutine per
// enclave, so nested and baseline walks interleave on two cores.
func runWalkLoad(t *testing.T, inner, outer *sdk.Enclave) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, e := range []struct {
		encl *sdk.Enclave
		call string
	}{{inner, "read_outer"}, {outer, "read_own"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < walkCalls; i++ {
				if _, err := e.encl.ECall(e.call, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWalkClassifierUnderParallelWalks: every call flushes the TLB on entry,
// so each makes exactly one walk, and the verdict alone decides its
// histogram. A classifier reading the global nested_validate counter moves
// baseline walks into the nested histogram whenever the other core's nested
// walk lands inside them.
func TestWalkClassifierUnderParallelWalks(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer, _ := loadWalkPair(t, r)
	rec := r.m.Rec
	nested0, base0 := rec.Hist(trace.OpNestedWalk).Count(), rec.Hist(trace.OpPageWalk).Count()
	walks0 := rec.Get(trace.EvPageWalk)

	runWalkLoad(t, inner, outer)

	nested := rec.Hist(trace.OpNestedWalk).Count() - nested0
	base := rec.Hist(trace.OpPageWalk).Count() - base0
	if nested != walkCalls || base != walkCalls {
		t.Fatalf("walk histograms: %d nested, %d baseline; want %d each", nested, base, walkCalls)
	}
	if walks := rec.Get(trace.EvPageWalk) - walks0; walks != nested+base {
		t.Fatalf("page_walk counter %d != histogram samples %d", walks, nested+base)
	}
}

// TestLLCBillingUnderParallelWalks: with observation on, each call's one
// LLC access bills to the enclave that made it. A payer kept in shared
// state bills one core's line to whichever enclave the other core named
// last.
func TestLLCBillingUnderParallelWalks(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer, _ := loadWalkPair(t, r)
	rec := r.m.Rec
	rec.EnableObservation(0)
	defer rec.DisableObservation()

	runWalkLoad(t, inner, outer)

	per := rec.PerEnclave()
	for _, e := range []*sdk.Enclave{inner, outer} {
		cs := per[uint64(e.SECS().EID)]
		if got := cs.Get(trace.EvLLCHit) + cs.Get(trace.EvLLCMiss); got != walkCalls {
			t.Errorf("enclave %d billed %d LLC accesses, want %d", e.SECS().EID, got, walkCalls)
		}
	}
}

// TestParallelMissesThroughOneEngine: two cores each write and read back
// their own region of one enclave's heap, each region twice the LLC, so every
// line they touch misses and the LLC fills and dirty writebacks of both
// cores pass through the one MEE and its scratch buffers at once. Each core
// must read back exactly the bytes it wrote, and the LLC and MEE counters
// must move by exactly the lines streamed.
func TestParallelMissesThroughOneEngine(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	const region = 2 << 20 // per core: twice SmallConfig's 1 MiB LLC
	img := sdk.NewImage("streams", 0x3000_0000,
		sdk.Layout{CodePages: 1, DataPages: 1, HeapPages: 2 * region / isa.PageSize, NumTCS: 2})
	heap := img.HeapBase()
	pattern := func(w, off int) byte { return byte(w*101 + off/isa.LineSize*7 + off) }
	img.RegisterECall("stream", func(env *sdk.Env, args []byte) ([]byte, error) {
		w := int(args[0])
		base := heap + isa.VAddr(w*region)
		page := make([]byte, isa.PageSize)
		for off := 0; off < region; off += isa.PageSize {
			for j := range page {
				page[j] = pattern(w, off+j)
			}
			if err := env.Write(base+isa.VAddr(off), page); err != nil {
				return nil, err
			}
		}
		for off := 0; off < region; off += isa.PageSize {
			got, err := env.Read(base+isa.VAddr(off), isa.PageSize)
			if err != nil {
				return nil, err
			}
			for j, b := range got {
				if want := pattern(w, off+j); b != want {
					return nil, fmt.Errorf("region %d byte %d reads %#x, want %#x", w, off+j, b, want)
				}
			}
		}
		return nil, nil
	})
	e, err := r.host.Load(img.Sign(measure.MustNewAuthor(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Start with every heap line sealed in DRAM and none in the LLC, so each
	// fetch is one MEE decrypt.
	sweepLLC(t, r)
	rec := r.m.Rec
	events := []trace.Event{trace.EvLLCHit, trace.EvLLCMiss, trace.EvMEEDecrypt, trace.EvMEEEncrypt}
	before := make([]int64, len(events))
	for i, ev := range events {
		before[i] = rec.Get(ev)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.ECall("stream", []byte{byte(w)}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The streams' own hits, misses and decrypts; then write back what is
	// still dirty, so every line written is sealed exactly once. The sweep's
	// own lines are untrusted and clean: they add misses, never MEE work.
	moved := make([]int64, len(events))
	for i, ev := range events {
		moved[i] = rec.Get(ev) - before[i]
	}
	sweepLLC(t, r)
	moved[3] = rec.Get(trace.EvMEEEncrypt) - before[3]

	const lines = region / isa.LineSize
	want := []int64{0, 2 * 2 * lines, 2 * 2 * lines, 2 * lines} // hit, miss, decrypt, encrypt
	for i, ev := range events {
		if moved[i] != want[i] {
			t.Errorf("%v moved by %d, want %d", ev, moved[i], want[i])
		}
	}
}

// TestPagerSpanParentsUnderFaultingCall: an ECall that faults on an evicted
// outer page reloads it on the faulting core, so the eld span parents under
// that call through the core's span stack, even while a second core keeps
// opening and closing walk spans of its own.
func TestPagerSpanParentsUnderFaultingCall(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer, heap := loadWalkPair(t, r)
	outer.Image().RegisterECall("read_next", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Read(heap+isa.PageSize, 8)
	})
	rec := r.m.Rec
	rec.EnableObservation(1 << 16)
	defer rec.DisableObservation()

	var stop atomic.Bool
	busy := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := outer.ECall("read_next", nil); err != nil {
				busy <- err
				return
			}
		}
		busy <- nil
	}()

	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := r.k.Driver.EvictPage(r.host.Proc, outer.SECS(), heap); err != nil {
			t.Fatalf("round %d: evict: %v", i, err)
		}
		if _, err := inner.ECall("read_outer", nil); err != nil {
			t.Fatalf("round %d: faulting call: %v", i, err)
		}
	}
	stop.Store(true)
	if err := <-busy; err != nil {
		t.Fatal(err)
	}

	byID := map[uint64]trace.Span{}
	for _, s := range rec.Spans() {
		byID[s.ID] = s
	}
	elds := 0
	for _, s := range byID {
		if s.Name != "eld" {
			continue
		}
		elds++
		if p := byID[s.Parent]; p.Name != "ecall:read_outer" || p.Core != s.Core {
			t.Errorf("eld span %d (core %d) parents to %q on core %d, want the faulting ecall:read_outer",
				s.ID, s.Core, p.Name, p.Core)
		}
	}
	if elds != rounds {
		t.Fatalf("found %d eld spans, want %d", elds, rounds)
	}
}

// TestPTEOutsideDRAMFaults: a kernel PTE naming a frame past the end of DRAM
// is refused with a typed #PF at the walk. A read that got past the walk
// would hit the physical memory model's bounds panic while holding the
// machine's read lock; the crash would poison the victim enclave and its
// evacuation would deadlock on the machine lock, hence the timeout.
func TestPTEOutsideDRAMFaults(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)
	const v = isa.VAddr(0x7000_0000) // outside every ELRANGE: "unsecure" memory
	r.host.Proc.MapFixed(v, isa.PAddr(r.m.DRAM.Size())+isa.PageSize, isa.PermRW)

	done := make(chan error, 1)
	go func() {
		_, err := inner.ECall("read", readArgs(v, 8))
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ECall through a PTE past DRAM did not return (machine deadlocked)")
	}
	var f *isa.Fault
	if !errors.As(err, &f) || f.Class != isa.FaultPF {
		t.Fatalf("read through PTE past DRAM: got %v, want a #PF", err)
	}
	if reason, poisoned := r.m.PoisonedReason(inner.SECS().EID); poisoned {
		t.Fatalf("victim enclave poisoned: %s", reason)
	}
	if _, err := outer.ECall("read", readArgs(outer.Image().HeapBase(), 8)); err != nil {
		t.Fatalf("later ECall on another enclave: %v", err)
	}
}
