package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the bounded ring buffer behind the observability
// layer, and the event log built on it: an ordered record of every
// transition, fault, paging and validation event, each stamped with a global
// sequence number, the simulated-cycle clock, the core, and the enclave
// billed. The log is sized at EnableObservation time and overwrites its
// oldest records when full, so long runs keep the most recent window. The
// completed-span ring (span.go) is the same ring over Spans.
//
// Writers contend only on one atomic fetch-add (the sequence allocator) plus
// a per-slot mutex; two writers hit the same slot mutex only when the ring
// wraps within their race window, so the ring is lock-free in practice while
// staying race-clean by construction (the tier-2 `-race` target hammers it).

// Record is one logged event.
type Record struct {
	// Seq is the global, gap-free order of the event (1-based).
	Seq uint64
	// Cycles is the simulated-cycle clock just after the event's cost was
	// charged; Cycles-Cost is the event's start time.
	Cycles int64
	// Cost is the cycle cost charged by this event (0 for markers).
	Cost int64
	// Core is the logical processor, NoCore for machine-global events.
	Core int32
	// EID is the enclave the event bills to, NoEID for untrusted execution.
	EID uint64
	// Event is what happened.
	Event Event
	// Detail is an event-specific word (virtual page number for walks,
	// virtual address for paging ops), 0 when unused.
	Detail uint64
	// Span is the innermost span open on the record's core when the event
	// was charged (see span.go), 0 when none — the causal link that places
	// the event inside a call tree.
	Span uint64
}

// ring is a bounded ring buffer of T, safe for concurrent append.
type ring[T any] struct {
	mask  uint64
	seq   atomic.Uint64
	slots []ringSlot[T]
}

type ringSlot[T any] struct {
	mu  sync.Mutex
	seq uint64 // 0 means never written
	v   T
}

// init sizes the ring to hold the most recent `capacity` values (rounded up
// to a power of two, minimum 64).
func (l *ring[T]) init(capacity int) {
	n := 64
	for n < capacity {
		n <<= 1
	}
	l.mask, l.slots = uint64(n-1), make([]ringSlot[T], n)
}

// Cap returns the number of values the ring retains.
func (l *ring[T]) Cap() int { return len(l.slots) }

// Seq returns the total number of values ever appended.
func (l *ring[T]) Seq() uint64 { return l.seq.Load() }

// Len returns the number of values currently held.
func (l *ring[T]) Len() int { return int(min(l.seq.Load(), uint64(len(l.slots)))) }

// put stores v under the next sequence number (1-based), overwriting the
// oldest value when the ring is full, and returns that sequence number.
func (l *ring[T]) put(v T) uint64 {
	s := l.seq.Add(1)
	slot := &l.slots[(s-1)&l.mask]
	slot.mu.Lock()
	// A slower writer from a previous lap must not clobber a newer value.
	if slot.seq < s {
		slot.seq, slot.v = s, v
	}
	slot.mu.Unlock()
	return s
}

// snapshot copies the live values in sequence order. stamp, when non-nil,
// receives each copy with its sequence number.
func (l *ring[T]) snapshot(stamp func(*T, uint64)) []T {
	type entry struct {
		seq uint64
		v   T
	}
	tmp := make([]entry, 0, len(l.slots))
	for i := range l.slots {
		sl := &l.slots[i]
		sl.mu.Lock()
		if sl.seq != 0 {
			tmp = append(tmp, entry{sl.seq, sl.v})
		}
		sl.mu.Unlock()
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].seq < tmp[j].seq })
	out := make([]T, len(tmp))
	for i, e := range tmp {
		out[i] = e.v
		if stamp != nil {
			stamp(&out[i], e.seq)
		}
	}
	return out
}

// EventLog is a bounded ring buffer of Records, safe for concurrent append.
type EventLog struct{ ring[Record] }

// NewEventLog builds a log holding the most recent `capacity` records
// (rounded up to a power of two, minimum 64).
func NewEventLog(capacity int) *EventLog {
	l := &EventLog{}
	l.init(capacity)
	return l
}

// Append stores rec under the next sequence number, its Seq in snapshots,
// overwriting the oldest record when the ring is full. It returns the
// assigned sequence.
func (l *EventLog) Append(rec Record) uint64 { return l.put(rec) }

// Snapshot copies the live records in sequence order.
func (l *EventLog) Snapshot() []Record {
	return l.snapshot(func(r *Record, seq uint64) { r.Seq = seq })
}

// RecordFilter selects records; see ByEID/ByCore/ByEvent.
type RecordFilter func(Record) bool

// ByEID keeps records billed to the enclave.
func ByEID(eid uint64) RecordFilter { return func(r Record) bool { return r.EID == eid } }

// ByCore keeps records from the core.
func ByCore(core int) RecordFilter { return func(r Record) bool { return r.Core == int32(core) } }

// ByEvent keeps records of the event.
func ByEvent(e Event) RecordFilter { return func(r Record) bool { return r.Event == e } }

// FilterRecords returns the records matching every filter.
func FilterRecords(recs []Record, filters ...RecordFilter) []Record {
	var out []Record
	for _, r := range recs {
		ok := true
		for _, f := range filters {
			if !f(r) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}
