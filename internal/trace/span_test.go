package trace

import (
	"reflect"
	"sync"
	"testing"
)

// TestSpanParentChild verifies the core causal property: spans opened while
// another is open on the same core link to it, siblings share the parent, and
// the completed spans carry the clock readings bracketing their charges.
func TestSpanParentChild(t *testing.T) {
	var r Recorder
	r.EnableObservation(256)

	outer := r.BeginSpan(0, 1, "ecall:q")
	if outer.ID() == 0 {
		t.Fatal("BeginSpan on an observing recorder returned the zero ref")
	}
	r.ChargeTo(1, 0, EvEENTER, CostEENTER)

	inner := r.BeginSpan(0, 2, "n_ecall:f")
	r.ChargeTo(2, 0, EvNEENTER, CostNEENTER)
	inner.End()

	inner2 := r.BeginSpan(0, 2, "page_walk")
	r.ChargeTo(2, 0, EvPageWalk, CostPageWalk)
	inner2.End()

	outer.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d completed spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	o := byName["ecall:q"]
	if o.Parent != 0 {
		t.Errorf("outer span parent = %d, want 0 (root)", o.Parent)
	}
	for _, name := range []string{"n_ecall:f", "page_walk"} {
		c := byName[name]
		if c.Parent != o.ID {
			t.Errorf("%s parent = %d, want outer %d", name, c.Parent, o.ID)
		}
		if c.Start < o.Start || c.End > o.End {
			t.Errorf("%s [%d,%d] not inside outer [%d,%d]", name, c.Start, c.End, o.Start, o.End)
		}
		if c.Cycles() <= 0 {
			t.Errorf("%s cycles = %d, want > 0", name, c.Cycles())
		}
	}
	if o.EID != 1 || o.Core != 0 {
		t.Errorf("outer identity = (eid %d, core %d), want (1, 0)", o.EID, o.Core)
	}
}

// TestSpanDisabled pins the zero-cost contract: with observation off,
// BeginSpan returns the zero ref, End is a no-op, and nothing accumulates.
func TestSpanDisabled(t *testing.T) {
	var r Recorder
	sp := r.BeginSpan(0, 1, "ecall:q")
	if sp.ID() != 0 {
		t.Errorf("disabled BeginSpan ID = %d, want 0", sp.ID())
	}
	sp.End() // must not panic
	if got := r.Spans(); len(got) != 0 {
		t.Errorf("disabled recorder has %d spans, want 0", len(got))
	}
	if r.CurrentSpan(0) != 0 {
		t.Error("disabled CurrentSpan != 0")
	}
}

// TestPagerSpanParenting pins how paging work lands in the call tree: an
// eviction run on the faulting core parents under that core's open call
// through the stack, while the paging daemon's NoCore work is a root even
// with a call open elsewhere.
func TestPagerSpanParenting(t *testing.T) {
	var r Recorder
	r.EnableObservation(256)

	call := r.BeginSpan(2, 1, "ecall:q")
	ewb := r.BeginOp(OpEWB, 2, 3, "")
	r.ChargeTo(3, 2, EvEWB, CostDRAMAccess)
	ewb.End()
	daemon := r.BeginOp(OpELD, NoCore, 3, "")
	daemon.End()
	call.End()

	byName := map[string]Span{}
	for _, s := range r.Spans() {
		byName[s.Name] = s
	}
	if got := byName["ewb"].Parent; got != call.ID() {
		t.Errorf("faulting-core ewb parent = %d, want %d", got, call.ID())
	}
	if got := byName["eld"].Parent; got != 0 {
		t.Errorf("daemon eld parent = %d, want 0 (root)", got)
	}
}

// TestBeginOpOneTimingPoint pins the one-timing-point contract: an op's span
// and its histogram sample come from the same two clock reads, a
// reclassified op samples its final histogram under its original span name,
// and with observation off the histogram still samples.
func TestBeginOpOneTimingPoint(t *testing.T) {
	var r Recorder
	off := r.BeginOp(OpECall, 0, 1, "q")
	r.ChargeTo(1, 0, EvEENTER, CostEENTER)
	off.End()
	if h := r.Hist(OpECall); h.Count() != 1 || h.Sum() != CostEENTER {
		t.Fatalf("unobserved op sampled count %d sum %d, want 1 and %d", h.Count(), h.Sum(), CostEENTER)
	}

	r.EnableObservation(256)
	call := r.BeginOp(OpECall, 0, 1, "q")
	r.ChargeTo(1, 0, EvEENTER, CostEENTER)
	walk := r.BeginOp(OpPageWalk, 0, 1, "")
	r.ChargeTo(1, 0, EvPageWalk, CostPageWalk)
	walk.Op = OpNestedWalk
	walk.End()
	call.End()

	byName := map[string]Span{}
	for _, s := range r.Spans() {
		byName[s.Name] = s
	}
	if got := byName["ecall:q"].Cycles(); got != CostEENTER+CostPageWalk {
		t.Errorf("ecall:q span = %d cycles, want %d", got, CostEENTER+CostPageWalk)
	}
	if got, want := r.Hist(OpECall).Sum(), int64(2*CostEENTER+CostPageWalk); got != want {
		t.Errorf("ecall histogram sum = %d, want %d", got, want)
	}
	if got := byName["page_walk"].Cycles(); got != CostPageWalk {
		t.Errorf("page_walk span = %d cycles, want %d", got, CostPageWalk)
	}
	if n, p := r.Hist(OpNestedWalk).Count(), r.Hist(OpPageWalk).Count(); n != 1 || p != 0 {
		t.Errorf("walk samples: nested %d, baseline %d; want 1 and 0", n, p)
	}
}

// TestSpanStampsRecords verifies that event-log records carry the innermost
// open span of their core — the link that lets annotations (chaos injections,
// faults) be placed in the call tree.
func TestSpanStampsRecords(t *testing.T) {
	var r Recorder
	r.EnableObservation(256)

	r.ChargeTo(1, 0, EvEENTER, CostEENTER) // before any span: stamp 0
	sp := r.BeginSpan(0, 1, "ecall:q")
	r.ChargeTo(1, 0, EvTLBFlush, CostTLBFlush) // inside: stamp sp
	sp.End()
	r.ChargeTo(1, 0, EvEEXIT, CostEEXIT) // after: stamp 0

	var before, inside, after Record
	for _, rec := range r.Log().Snapshot() {
		switch rec.Event {
		case EvEENTER:
			before = rec
		case EvTLBFlush:
			inside = rec
		case EvEEXIT:
			after = rec
		}
	}
	if before.Span != 0 {
		t.Errorf("pre-span record stamped with span %d, want 0", before.Span)
	}
	if inside.Span != sp.ID() {
		t.Errorf("in-span record stamped with %d, want %d", inside.Span, sp.ID())
	}
	if after.Span != 0 {
		t.Errorf("post-span record stamped with span %d, want 0", after.Span)
	}
}

// TestSpanEndTolerant pins End's safety properties: double End, End after the
// sink was swapped away, and out-of-order closure must all be safe.
func TestSpanEndTolerant(t *testing.T) {
	var r Recorder
	r.EnableObservation(256)

	sp := r.BeginSpan(0, 1, "ecall:q")
	sp.End()
	sp.End() // double close: no-op
	if n := len(r.Spans()); n != 1 {
		t.Errorf("double End produced %d spans, want 1", n)
	}

	// Out-of-order closure: the outer End removes only its own frame.
	a := r.BeginSpan(1, 1, "a")
	b := r.BeginSpan(1, 1, "b")
	a.End()
	if got := r.CurrentSpan(1); got != b.ID() {
		t.Errorf("after out-of-order End, current span = %d, want %d", got, b.ID())
	}
	b.End()

	// End across a sink swap must not panic or corrupt the new sink.
	c := r.BeginSpan(0, 1, "c")
	r.DisableObservation()
	r.EnableObservation(256)
	c.End()
	if n := len(r.Spans()); n != 0 {
		t.Errorf("stale End leaked %d spans into the fresh sink", n)
	}
}

// TestSpanRingEviction verifies the completed-span ring is bounded and keeps
// the newest spans when it wraps.
func TestSpanRingEviction(t *testing.T) {
	var r Recorder
	r.EnableObservation(64) // span ring floor is 1024
	const total = 3000
	for i := 0; i < total; i++ {
		sp := r.BeginSpan(0, 1, "op")
		r.ChargeTo(1, 0, EvLLCHit, 1)
		sp.End()
	}
	spans := r.Spans()
	if len(spans) == 0 || len(spans) > 1024 {
		t.Fatalf("ring snapshot has %d spans, want (0, 1024]", len(spans))
	}
	// The newest span must have survived; IDs are monotonic.
	maxID := spans[len(spans)-1].ID
	for _, s := range spans {
		if s.ID > maxID {
			maxID = s.ID
		}
	}
	if maxID != uint64(total) {
		t.Errorf("newest surviving span ID = %d, want %d", maxID, total)
	}
}

// runProfiledWorkload is a fixed span/charge sequence used to pin profile
// determinism: same charges on the same simulated clock → same call tree.
func runProfiledWorkload(r *Recorder) {
	for i := 0; i < 50; i++ {
		outer := r.BeginSpan(0, 1, "ecall:q")
		r.ChargeTo(1, 0, EvEENTER, CostEENTER)
		inner := r.BeginSpan(0, 2, "n_ecall:f")
		r.ChargeTo(2, 0, EvNEENTER, CostNEENTER)
		r.ChargeTo(2, 0, EvNEEXIT, CostNEEXIT)
		inner.End()
		r.ChargeTo(1, 0, EvEEXIT, CostEEXIT)
		outer.End()
	}
}

// selfSum returns Σ Self over the tree and Σ Cycles over its top level.
func selfSum(tree *SpanNode) (self, top int64) {
	tree.Walk(func(_ []string, n *SpanNode) { self += n.Self })
	for _, c := range tree.Children {
		top += c.Cycles
	}
	return self, top
}

// TestProfilerDeterministic runs the identical workload twice and demands
// identical call trees whose self cycles are exactly the charges made
// directly under each span, and checks that Σ Self equals the top-level
// inclusive cycles — also when spans are missing from the ring.
func TestProfilerDeterministic(t *testing.T) {
	run := func() ([]Span, *SpanNode) {
		var r Recorder
		r.EnableObservation(4096)
		runProfiledWorkload(&r)
		spans := r.Spans()
		return spans, AggregateSpans(spans)
	}
	spans, t1 := run()
	_, t2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("two runs of the same workload built different call trees")
	}
	if len(t1.Children) != 1 || len(t1.Children[0].Children) != 1 {
		t.Fatalf("tree shape: want ecall:q → n_ecall:f, got %d top-level nodes", len(t1.Children))
	}
	outer, inner := t1.Children[0], t1.Children[0].Children[0]
	if want := int64(50 * (CostEENTER + CostEEXIT)); outer.Self != want {
		t.Errorf("ecall:q self = %d, want %d", outer.Self, want)
	}
	if want := int64(50 * (CostNEENTER + CostNEEXIT)); inner.Self != want || inner.Cycles != want {
		t.Errorf("n_ecall:f self/inclusive = %d/%d, want %d", inner.Self, inner.Cycles, want)
	}
	// A span missing from the slice models ring eviction. Without the first
	// child, its parent keeps the child's time as self; without the last
	// parent, its child moves to the top level. The identity holds for both.
	for _, part := range [][]Span{spans[1:], spans[:len(spans)-1]} {
		if self, top := selfSum(AggregateSpans(part)); self != top {
			t.Errorf("%d of %d spans: Σ self = %d, Σ top-level inclusive = %d", len(part), len(spans), self, top)
		}
	}
}

// TestSpanRaceHammer mirrors TestRecorderRaceHammer for the span layer: many
// goroutines open/close nested spans and ops on distinct and shared cores
// and charge inside them, while readers snapshot the spans, fold them into
// call trees, and snapshot the log — all against a small, constantly
// wrapping span ring. Run under -race in tier2.
func TestSpanRaceHammer(t *testing.T) {
	var r Recorder
	r.EnableObservation(64)

	var wg sync.WaitGroup
	const writers, per = 8, 1500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			core := id % 4 // shared cores: concurrent stack mutation
			eid := uint64(id%3 + 1)
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					sp := r.BeginSpan(core, eid, "ecall:q")
					r.ChargeTo(eid, core, EvEENTER, CostEENTER)
					in := r.BeginSpan(core, eid, "page_walk")
					r.ChargeToDetail(eid, core, EvPageWalk, CostPageWalk, uint64(i))
					in.End()
					sp.End()
				case 1:
					op := r.BeginOp(OpEWB, NoCore, eid, "")
					r.ChargeTo(eid, NoCore, EvEWB, CostDRAMAccess)
					op.End()
				case 2:
					_ = r.CurrentSpan(core)
					r.Hist(OpECall).Observe(int64(i))
				}
			}
		}(w)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = AggregateSpans(r.Spans())
			if l := r.Log(); l != nil {
				_ = l.Snapshot()
			}
		}
	}()

	wg.Wait()
	close(done)
	readers.Wait()

	spans := r.Spans()
	if len(spans) == 0 {
		t.Fatal("race hammer produced no completed spans")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends (%d) before it starts (%d)", s.ID, s.Name, s.End, s.Start)
		}
	}
	// Shared cores interleave frames, so a span can outlive the one it
	// parents to; Σ self still equals the top level by construction.
	if self, top := selfSum(AggregateSpans(spans)); self != top {
		t.Errorf("Σ self = %d, Σ top-level inclusive = %d", self, top)
	}
}
