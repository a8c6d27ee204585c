// Package tlb models a per-core Translation Lookaside Buffer.
//
// The TLB is the linchpin of SGX's access control: validation of a
// translation happens once, while handling the TLB miss, and the inserted
// entry is trusted until flushed. The architecture therefore maintains the
// invariant that "TLB must always contain only valid translations" (paper
// §II-B) by flushing on every transition between protection domains and on
// every virtual-to-physical mapping change of an EPC page.
//
// Entries carry the protection context under which they were validated (the
// enclave mode and EID at fill time) purely for *auditing*: the security
// property tests walk live TLB contents and check the paper's four
// invariants. Real hardware does not tag entries this way — it relies on the
// flushes — and neither does the simulator's lookup path: a lookup only
// matches entries filled under the current context because transitions flush.
package tlb

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/trace"
)

// Entry is a cached translation.
type Entry struct {
	VPN   uint64
	PPN   uint64
	Perms isa.Perm
	// FilledInEnclave and FilledEID record the protection context under
	// which the entry was validated (auditing only; see package comment).
	FilledInEnclave bool
	FilledEID       isa.EID
}

// TLB is a per-core translation cache. Not safe for concurrent use; each
// core owns exactly one, and safety under the machine's shared-lock access
// path is by ownership, not locking: lookups and fills happen only on the
// owning core's goroutine (which holds at least the machine's read lock),
// while cross-core flushes (TLB shootdowns during EPC paging) are issued
// only under the machine's exclusive lock, when no access path can be
// running anywhere.
type TLB struct {
	entries map[uint64]Entry
	rec     *trace.Recorder

	// CoreID names the owning core in attributed charges.
	CoreID int
	// BillEID is the enclave whose execution currently fills and flushes
	// this TLB; the transition instructions maintain it alongside the
	// protection context, so hits, misses and flushes bill correctly.
	BillEID uint64
}

// New creates an empty TLB. rec may be nil.
func New(rec *trace.Recorder) *TLB {
	return &TLB{entries: make(map[uint64]Entry), rec: rec}
}

// Lookup returns the cached translation for the virtual page, if present.
func (t *TLB) Lookup(v isa.VAddr) (Entry, bool) {
	e, ok := t.entries[v.VPN()]
	if t.rec != nil {
		if ok {
			t.rec.ChargeTo(t.BillEID, t.CoreID, trace.EvTLBHit, trace.CostTLBHit)
		} else {
			t.rec.ChargeTo(t.BillEID, t.CoreID, trace.EvTLBMiss, 0)
		}
	}
	return e, ok
}

// Insert caches a validated translation. Only the access validator may call
// this; inserting an unvalidated entry breaks the security invariants (and
// the property tests will catch it).
func (t *TLB) Insert(e Entry) { t.entries[e.VPN] = e }

// FlushAll drops every entry — the action taken on EENTER/EEXIT/AEX and on
// NEENTER/NEEXIT transitions.
func (t *TLB) FlushAll() {
	if t.rec != nil {
		t.rec.ChargeTo(t.BillEID, t.CoreID, trace.EvTLBFlush, trace.CostTLBFlush)
	}
	clear(t.entries)
}

// FlushVPN drops the entry for one virtual page (targeted invalidation used
// by page-permission changes in unprotected memory).
func (t *TLB) FlushVPN(vpn uint64) { delete(t.entries, vpn) }

// Len returns the number of cached translations.
func (t *TLB) Len() int { return len(t.entries) }

// MapsFrame reports whether any cached translation points at physical page
// ppn. EWB asks it of every TLB before it frees a frame; unlike Entries it
// copies nothing.
func (t *TLB) MapsFrame(ppn uint64) bool {
	for _, e := range t.entries {
		if e.PPN == ppn {
			return true
		}
	}
	return false
}

// Entries returns a snapshot of all cached translations, for invariant
// audits in tests.
func (t *TLB) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	return out
}
