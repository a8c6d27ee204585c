package trace

import (
	"sync"
	"sync/atomic"
)

// This file implements causal span tracing on top of the flat observability
// layer: every composite operation (ecall, ocall, n_ecall, n_ocall, page
// walk, EWB/ELD, AEX, supervisor restart, channel retransmit) opens a span
// carrying the ID of its parent, so the full nested call tree — host → outer
// enclave → inner enclave → back — is reconstructable after the run. Spans
// live on per-core stacks inside the observation sink; every event-log
// Record is stamped with the innermost open span on its core, which is how
// zero-cost annotations (chaos injections, faults) attach to the call tree
// they landed in. The completed spans are the profile too: AggregateSpans
// folds them into a call tree with exact inclusive and self cycles, and
// WriteFolded exports that tree as folded stacks.
//
// Like the rest of the observation layer, all of it vanishes when
// observation is off: BeginSpan on a disabled recorder returns the zero
// SpanRef, whose End is a no-op.

// Span is one completed span. Start and End are simulated-cycle clock
// readings; End-Start is the span's inclusive duration (children included),
// matching what the composite-operation histograms observe for the same
// operation.
type Span struct {
	// ID is the span's unique, monotonically assigned identity (1-based;
	// 0 means "no span").
	ID uint64
	// Parent is the ID of the span open below this one when it began, or 0
	// for a root span.
	Parent uint64
	// Name identifies the operation ("ecall:query", "page_walk", "ewb", ...).
	Name string
	// EID is the enclave the span's operation executes for, NoEID for host.
	EID uint64
	// Core is the logical processor, NoCore for machine-global spans.
	Core int32
	// Start and End are the simulated clock at open and close.
	Start, End int64
}

// Cycles returns the span's inclusive duration.
func (s Span) Cycles() int64 { return s.End - s.Start }

// spanSlots bounds the per-core span stacks: slot 0 carries NoCore (and any
// core beyond the bound, which no configuration reaches), slot c+1 carries
// core c.
const spanSlots = 65

func spanSlot(core int) int {
	if core < 0 || core >= spanSlots-1 {
		return 0
	}
	return core + 1
}

// spanFrame is one open span on a stack.
type spanFrame struct {
	id     uint64
	parent uint64
	name   string
	eid    uint64
	core   int32
	start  int64
}

type spanStack struct {
	mu     sync.Mutex
	frames []spanFrame
}

// top returns the innermost open span ID, 0 when empty.
func (st *spanStack) top() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := len(st.frames); n > 0 {
		return st.frames[n-1].id
	}
	return 0
}

// spanState is the span half of the observation sink: the ID allocator, the
// per-core stacks of open spans, and the ring of completed spans.
type spanState struct {
	seq    atomic.Uint64
	stacks [spanSlots]spanStack
	done   ring[Span]
}

// spanTop returns the innermost open span on the core's stack, 0 when empty.
func (ss *spanState) spanTop(core int) uint64 { return ss.stacks[spanSlot(core)].top() }

// SpanRef is a handle to an open span. The zero SpanRef (returned when
// observation is off) is valid and End is a no-op on it.
type SpanRef struct {
	rec  *Recorder
	st   *spanState
	id   uint64
	slot int32
}

// ID returns the open span's identity, 0 for the zero SpanRef.
func (ref SpanRef) ID() uint64 { return ref.id }

// BeginSpan opens a span on the core's stack. Its parent is the innermost
// span already open on that stack. Returns the zero SpanRef when observation
// is disabled.
func (r *Recorder) BeginSpan(core int, eid uint64, name string) SpanRef {
	s := r.sink.Load()
	if s == nil {
		return SpanRef{}
	}
	return s.spans.open(r, core, eid, name, r.Cycles())
}

// open pushes a frame that began at the given clock reading.
func (ss *spanState) open(r *Recorder, core int, eid uint64, name string, start int64) SpanRef {
	id := ss.seq.Add(1)
	slot := spanSlot(core)
	st := &ss.stacks[slot]
	st.mu.Lock()
	var parent uint64
	if n := len(st.frames); n > 0 {
		parent = st.frames[n-1].id
	}
	st.frames = append(st.frames, spanFrame{
		id: id, parent: parent, name: name,
		eid: eid, core: int32(core), start: start,
	})
	st.mu.Unlock()
	return SpanRef{rec: r, st: ss, id: id, slot: int32(slot)}
}

// End closes the span: it is removed from its stack and the completed Span
// is appended to the span ring. End tolerates a missing frame (the sink was
// swapped, or the frame was already closed) and out-of-order closure.
func (ref SpanRef) End() {
	if ref.st != nil {
		ref.endAt(ref.rec.Cycles())
	}
}

// endAt is End with the closing clock reading supplied by the caller.
func (ref SpanRef) endAt(end int64) {
	if ref.st == nil {
		return
	}
	st := &ref.st.stacks[ref.slot]
	st.mu.Lock()
	var frame spanFrame
	found := false
	for i := len(st.frames) - 1; i >= 0; i-- {
		if st.frames[i].id == ref.id {
			frame = st.frames[i]
			st.frames = append(st.frames[:i], st.frames[i+1:]...)
			found = true
			break
		}
	}
	st.mu.Unlock()
	if !found {
		return
	}
	ref.st.done.put(Span{
		ID: frame.id, Parent: frame.parent, Name: frame.name,
		EID: frame.eid, Core: frame.core,
		Start: frame.start, End: end,
	})
}

// OpRef is a composite operation in flight. Its End adds the latency
// histogram sample and closes the span from the same two clock reads, so
// the span tree and the histograms agree by construction.
type OpRef struct {
	// Op is the histogram End samples. A page walk begins as OpPageWalk
	// and is reclassified once the validator's verdict is known.
	Op    Op
	rec   *Recorder
	start int64
	span  SpanRef
}

// BeginOp starts a composite operation on the core. The histogram is always
// sampled; the span, named after the op ("ecall", or "ecall:name" when name
// is non-empty), is opened and its name built only while observation is on.
func (r *Recorder) BeginOp(op Op, core int, eid uint64, name string) OpRef {
	o := OpRef{Op: op, rec: r, start: r.Cycles()}
	if s := r.sink.Load(); s != nil {
		label := op.String()
		if name != "" {
			label += ":" + name
		}
		o.span = s.spans.open(r, core, eid, label, o.start)
	}
	return o
}

// End samples the histogram and closes the span. Every path samples, failed
// operations included. The pointer receiver lets `defer op.End()` see a
// reclassification made after the defer statement.
func (o *OpRef) End() {
	end := o.rec.Cycles()
	o.rec.hist[o.Op].Observe(end - o.start)
	o.span.endAt(end)
}

// CurrentSpan returns the innermost open span on the core, 0 when none (or
// observation is off).
func (r *Recorder) CurrentSpan(core int) uint64 {
	if s := r.sink.Load(); s != nil {
		return s.spans.spanTop(core)
	}
	return 0
}

// Spans snapshots the completed-span ring in completion order. Empty when
// observation is disabled.
func (r *Recorder) Spans() []Span {
	if s := r.sink.Load(); s != nil {
		return s.spans.done.snapshot(nil)
	}
	return nil
}
