// Fixture: BeginSpan and BeginOp results in the span-opening layers must be
// closed on all paths — deferred, or linearly in the binding's own block. An
// End reachable only inside a nested block, a missing End, and a discarded
// result are findings.
package sdk

import "fix/internal/trace"

// Deferred close covers every exit, including panic unwind. Clean.
func DeferredOK(rec *trace.Recorder) {
	sp := rec.BeginSpan(0, 1, "ecall:q")
	defer sp.End()
}

// Straight-line close in the same block (the aexLocked pattern). Clean.
func LinearOK(rec *trace.Recorder) {
	sp := rec.BeginSpan(0, 1, "aex")
	sp.End()
}

// Two spans, each properly paired, one via the hint round trip. Clean.
func TwoSpansOK(rec *trace.Recorder) {
	outer := rec.BeginSpan(trace.NoCore, trace.NoEID, "restart")
	defer outer.End()
	inner := rec.BeginSpan(0, 2, "page_walk")
	_ = inner.ID()
	inner.End()
}

func Unclosed(rec *trace.Recorder) {
	sp := rec.BeginSpan(0, 1, "ecall:q") // want "spanpair/unclosed: .*opens span sp but never calls sp.End"
	_ = sp.ID()
}

// The only End sits behind a condition: the fast path leaks the span.
func ConditionalEnd(rec *trace.Recorder, slow bool) {
	sp := rec.BeginSpan(0, 1, "ewb") // want "spanpair/conditional: .*ends span sp only inside a nested block"
	if slow {
		sp.End()
	}
}

// Dropping the SpanRef makes the span permanently unclosable.
func Discarded(rec *trace.Recorder) {
	rec.BeginSpan(0, 1, "eld") // want "spanpair/discarded: .*discards the BeginSpan result"
}

func DiscardedBlank(rec *trace.Recorder) {
	_ = rec.BeginSpan(0, 1, "eld") // want "spanpair/discarded: .*discards the BeginSpan result"
}

// A span opened inside a branch and closed in that same block is linear
// within its binding block. Clean.
func BranchLocalOK(rec *trace.Recorder, walk bool) {
	if walk {
		sp := rec.BeginSpan(0, 1, "page_walk")
		sp.End()
	}
}

// Function literals are checked as their own bodies.
func LiteralCases(rec *trace.Recorder) {
	ok := func() {
		sp := rec.BeginSpan(0, 1, "ocall:x")
		defer sp.End()
	}
	bad := func() {
		sp := rec.BeginSpan(0, 1, "ocall:y") // want "spanpair/unclosed: .*opens span sp but never calls sp.End"
		_ = sp.ID()
	}
	ok()
	bad()
}

// An explicit, reasoned suppression works like every other family.
func Suppressed(rec *trace.Recorder) {
	//nescheck:allow spanpair fixture exercises the allow path for span leaks
	sp := rec.BeginSpan(0, 1, "ecall:q")
	_ = sp.ID()
}

// A deferred op End sees a reclassification made after the defer. Clean.
func OpDeferredOK(rec *trace.Recorder, nested bool) {
	walk := rec.BeginOp(trace.OpPageWalk, 0, 1, "")
	defer walk.End()
	if nested {
		walk.Op = trace.OpNestedWalk
	}
}

// Straight-line op close in the binding's block. Clean.
func OpLinearOK(rec *trace.Recorder) {
	op := rec.BeginOp(trace.OpECall, 0, 1, "q")
	op.End()
}

func OpUnclosed(rec *trace.Recorder) {
	op := rec.BeginOp(trace.OpECall, 0, 1, "q") // want "spanpair/unclosed: .*opens span op but never calls op.End"
	_ = op.Op
}

// The failure path returns before the only End: the op loses its span and
// its histogram sample.
func OpConditionalEnd(rec *trace.Recorder, fail bool) error {
	op := rec.BeginOp(trace.OpECall, 0, 1, "q") // want "spanpair/conditional: .*ends span op only inside a nested block"
	if !fail {
		op.End()
	}
	return nil
}

func OpDiscarded(rec *trace.Recorder) {
	rec.BeginOp(trace.OpECall, 0, 1, "q") // want "spanpair/discarded: .*discards the BeginOp result"
}

func OpDiscardedBlank(rec *trace.Recorder) {
	_ = rec.BeginOp(trace.OpPageWalk, 0, 1, "") // want "spanpair/discarded: .*discards the BeginOp result"
}
