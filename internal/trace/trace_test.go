package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc(EvECall)
	c.Add(EvOCall, 3)
	if c.Get(EvECall) != 1 || c.Get(EvOCall) != 3 {
		t.Fatalf("counts: %d, %d", c.Get(EvECall), c.Get(EvOCall))
	}
	snap := c.Snapshot()
	if snap["ecall"] != 1 || snap["ocall"] != 3 {
		t.Fatalf("snapshot: %v", snap)
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot carries zero counters: %v", snap)
	}
	c.Reset()
	if c.Get(EvECall) != 0 {
		t.Fatal("reset failed")
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Advance(23)
	if c.Cycles() != 123 {
		t.Fatalf("cycles = %d", c.Cycles())
	}
	c.Reset()
	if c.Cycles() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRecorderCharge(t *testing.T) {
	var r Recorder
	r.Charge(EvEENTER, CostEENTER)
	if r.Get(EvEENTER) != 1 || r.Cycles() != CostEENTER {
		t.Fatalf("charge: count=%d cycles=%d", r.Get(EvEENTER), r.Cycles())
	}
}

func TestConcurrentCounters(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Charge(EvTLBMiss, 1)
			}
		}()
	}
	wg.Wait()
	if r.Get(EvTLBMiss) != 8000 || r.Cycles() != 8000 {
		t.Fatalf("concurrent: %d / %d", r.Get(EvTLBMiss), r.Cycles())
	}
}

func TestDiffInto(t *testing.T) {
	var c Counters
	c.Inc(EvECall)
	var before, delta CounterSet
	c.SnapshotInto(&before)
	c.Add(EvECall, 4)
	c.Inc(EvNECall)
	c.DiffInto(&before, &delta)
	if delta.Get(EvECall) != 4 || delta.Get(EvNECall) != 1 || delta.Get(EvOCall) != 0 {
		t.Fatalf("delta: %v", delta.Map())
	}
	if delta.Total() != 5 || delta.Total(EvECall) != 4 {
		t.Fatalf("totals: %d / %d", delta.Total(), delta.Total(EvECall))
	}
	m := delta.Map()
	if len(m) != 2 || m["ecall"] != 4 {
		t.Fatalf("map form: %v", m)
	}
}

func TestRecorderAttribution(t *testing.T) {
	var r Recorder
	// Disabled: charges count globally, nothing is attributed.
	r.ChargeTo(7, 0, EvEENTER, CostEENTER)
	if r.Observing() || len(r.PerEnclave()) != 0 || r.Log() != nil {
		t.Fatal("observation should start disabled")
	}

	r.EnableObservation(64)
	if !r.Observing() || r.Log() == nil {
		t.Fatal("observation not enabled")
	}
	r.ChargeTo(1, 0, EvEENTER, CostEENTER)
	r.ChargeTo(2, 1, EvNEENTER, CostNEENTER)
	r.ChargeToDetail(2, 1, EvPageWalk, CostPageWalk, 0x123)
	r.ChargeTo(2, NoCore, EvLLCHit, CostLLCHit)

	per := r.PerEnclave()
	if e1 := per[1]; e1.Get(EvEENTER) != 1 {
		t.Fatalf("enclave 1: %v", e1.Map())
	}
	if s := per[2]; s.Get(EvNEENTER) != 1 || s.Get(EvPageWalk) != 1 || s.Get(EvLLCHit) != 1 {
		t.Fatalf("enclave 2: %v", s.Map())
	}
	if _, ok := per[7]; ok {
		t.Fatal("pre-enable charge must not be attributed")
	}

	recs := r.Log().Snapshot()
	if len(recs) != 4 {
		t.Fatalf("log has %d records", len(recs))
	}
	walk := FilterRecords(recs, ByEvent(EvPageWalk))
	if len(walk) != 1 || walk[0].Detail != 0x123 || walk[0].EID != 2 || walk[0].Core != 1 {
		t.Fatalf("page walk record: %+v", walk)
	}
	llc := FilterRecords(recs, ByEvent(EvLLCHit))
	if len(llc) != 1 || llc[0].EID != 2 || llc[0].Core != int32(NoCore) {
		t.Fatalf("machine-global record: %+v", llc)
	}

	// Global counters kept counting throughout (2 EENTER total).
	if r.Get(EvEENTER) != 2 {
		t.Fatalf("global EENTER = %d", r.Get(EvEENTER))
	}

	r.DisableObservation()
	if r.Observing() || r.Log() != nil || len(r.PerEnclave()) != 0 {
		t.Fatal("disable did not drop the sink")
	}
}

// TestRecorderRaceHammer drives one Recorder from many goroutines across
// every concurrent surface — attributed charges, machine-global charges,
// histogram observations, and concurrent snapshot readers — while observation with a
// small (constantly wrapping) event log is enabled. Run under -race (the
// tier-2 target) this is the data-race proof for the observability layer.
func TestRecorderRaceHammer(t *testing.T) {
	var r Recorder
	r.EnableObservation(64)
	var wg sync.WaitGroup
	const writers, per = 8, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			eid := uint64(id%4 + 1)
			for i := 0; i < per; i++ {
				switch i % 4 {
				case 0:
					r.ChargeTo(eid, id, EvEENTER, CostEENTER)
				case 1:
					r.ChargeToDetail(eid, id, EvPageWalk, CostPageWalk, uint64(i))
				case 2:
					r.ChargeTo(eid, NoCore, EvLLCHit, CostLLCHit)
				case 3:
					r.Hist(OpECall).Observe(int64(i))
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots, per-enclave maps, log drains, exports.
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var cs CounterSet
		for {
			select {
			case <-done:
				return
			default:
			}
			r.SnapshotInto(&cs)
			_ = r.PerEnclave()
			if l := r.Log(); l != nil {
				_ = l.Snapshot()
			}
			_ = r.Hist(OpECall).Snapshot()
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()

	total := int64(writers * per)
	got := r.Get(EvEENTER) + r.Get(EvPageWalk) + r.Get(EvLLCHit) + r.Hist(OpECall).Count()
	if got != total {
		t.Fatalf("hammer lost events: %d of %d", got, total)
	}
	if r.Log().Seq() != uint64(writers*per/4*3) {
		t.Fatalf("log seq = %d", r.Log().Seq())
	}
}

func TestStringers(t *testing.T) {
	var c Counters
	c.Inc(EvNEENTER)
	c.Inc(EvAEX)
	s := c.String()
	if !strings.Contains(s, "NEENTER=1") || !strings.Contains(s, "AEX=1") {
		t.Fatalf("counter string: %q", s)
	}
	if Event(9999).String() == "" {
		t.Fatal("unknown event stringer empty")
	}
	for e := Event(0); e < numEvents; e++ {
		if strings.HasPrefix(e.String(), "event(") {
			t.Errorf("event %d has no name", e)
		}
	}
}
