package sgx

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

// This file implements the access-validation flow run while handling a TLB
// miss, before a translation may be inserted into the TLB: the paper's
// Figure 6, which is baseline SGX's Figure 2 plus the branches that give an
// inner enclave access to its outer enclaves' memory. On a machine where no
// NASSO has run no enclave has an outer, the outer loops below are empty,
// and what runs is Figure 2.

// Figure6Validator implements the paper's Figure-6 access-control flow.
// Every step is charged to the cost model, so deeper nesting shows up as
// longer validation latency exactly as §VIII predicts.
//
// The flow, for a translation (v → paddr) requested in enclave mode by
// enclave s:
//
//	paddr in PRM (path B):
//	    EPCM entry valid, unblocked, PT_REG?            — else abort
//	    EPCM.EID == s?                                  — baseline accept path
//	    else (steps ③④⑤): EPCM.EID == an outer of s,
//	    and EPCM.vaddr == v?                            — nested accept path
//	    else                                            — abort
//	paddr not in PRM (path C):
//	    v in ELRANGE(s)?                                — #PF (evicted page)
//	    (steps ①②): v in ELRANGE(outer of s)?           — #PF (evicted page)
//	    else unsecure access: execute permission disabled.
type Figure6Validator struct{}

// abortVerdict is the shared "silently abort the access" result: reads
// return all ones, writes are dropped — SGX's abort-page semantics for
// unauthorized accesses to protected memory.
func abortVerdict() (tlb.Entry, Verdict) { return tlb.Entry{}, Verdict{Path: PathAbort} }

func faultVerdict(f *isa.Fault) (tlb.Entry, Verdict) {
	return tlb.Entry{}, Verdict{Path: PathFault, Fault: f}
}

// Validate implements Validator. Validation steps are counted locally and
// charged as one batched record on every exit path (bit-identical to one
// charge per step); with the cached outer closure (see OuterChain) this
// keeps the nested walk free of per-step recording and per-walk allocations.
func (Figure6Validator) Validate(c *Core, v isa.VAddr, pte pt.PTE, op isa.Access) (tlb.Entry, Verdict) {
	m := c.m
	paddr := isa.PAddr(pte.PPN << isa.PageShift)
	var steps int64
	defer func() { m.Rec.ChargeBatchTo(c.BillEID(), c.ID, trace.EvValidateStep, steps, trace.CostValidateStep) }()

	// The page-table permission applies in every mode; an OS-underpermitted
	// page is an ordinary page fault.
	if !pte.Perms.Allows(op) {
		return faultVerdict(isa.PF(v, op, "page-table permission"))
	}

	// (A) Non-enclave execution must never touch the protected region.
	steps++
	if !c.inEnclave {
		if m.DRAM.PageInPRM(paddr) {
			return abortVerdict()
		}
		return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: pte.Perms}, Verdict{}
	}

	s := c.cur

	// (B) Enclave mode, physical page inside PRM: the EPCM entry decides.
	steps++
	if m.DRAM.PageInPRM(paddr) {
		ent, ok := m.EPC.EntryAt(paddr)
		steps++
		if !ok || !ent.Valid {
			return abortVerdict()
		}
		if ent.Blocked {
			// Blocked pages are in eviction; no new translations may be
			// created. Deliver a page fault so the kernel can finish paging.
			return faultVerdict(isa.PF(v, op, "EPC page blocked for eviction"))
		}
		if ent.Type != isa.PTReg {
			// SECS/TCS/VA pages are never software-accessible.
			return abortVerdict()
		}
		// Baseline owner check.
		steps++
		if ent.Owner == s.EID {
			if ent.Vaddr != v.PageBase() {
				// The invariant: an EPC page is accessible only through the
				// single virtual address fixed by the enclave author. The OS
				// aliasing it elsewhere is an attack; abort.
				return abortVerdict()
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return faultVerdict(isa.PF(v, op, "EPCM permission"))
			}
			return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: eff,
				FilledInEnclave: true, FilledEID: s.EID}, Verdict{}
		}
		// Steps ③④⑤: the owner is not the current enclave — if the current
		// enclave is an inner enclave, re-validate against its outer
		// enclave(s), walking the inner-outer chain (multi-level §VIII).
		for _, outer := range m.OuterChain(s) {
			steps++
			if ent.Owner != outer.EID {
				continue
			}
			// Step ⑤: the virtual address must match the EPCM record and
			// lie inside the outer's ELRANGE.
			steps++
			if ent.Vaddr != v.PageBase() || !outer.ContainsVPN(v.VPN()) {
				return abortVerdict()
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return faultVerdict(isa.PF(v, op, "EPCM permission (outer page)"))
			}
			m.Rec.ChargeToDetail(uint64(s.EID), c.ID, trace.EvNestedValidate, 0, v.VPN())
			return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: eff,
				FilledInEnclave: true, FilledEID: s.EID}, Verdict{Path: PathOuter}
		}
		// Peer inner enclave, unrelated enclave, or non-enclave attacker
		// mapping: abort. This is the line that confines the outer enclave
		// (and peers) away from inner-enclave memory.
		return abortVerdict()
	}

	// (C) Enclave mode, physical page outside PRM.
	steps++
	if s.ContainsVPN(v.VPN()) {
		// A virtual page inside ELRANGE must be backed by an EPC page; this
		// translation points elsewhere, so the page was evicted (or the OS
		// lies). Page fault — the kernel may reload and retry.
		return faultVerdict(isa.PF(v, op, "ELRANGE page not backed by EPC (evicted?)"))
	}
	// Steps ①②: within an *outer* enclave's ELRANGE but not backed by an EPC
	// page — the outer page was evicted; page fault so the kernel reloads it.
	for _, outer := range m.OuterChain(s) {
		steps++
		if outer.ContainsVPN(v.VPN()) {
			return faultVerdict(isa.PF(v, op, "outer ELRANGE page not backed by EPC (evicted?)"))
		}
	}
	// An enclave access to ordinary unsecure memory: permitted for data,
	// but never executable (enclaves must not run untrusted code).
	perms := pte.Perms &^ isa.PermX
	if !perms.Allows(op) {
		return faultVerdict(isa.PF(v, op, "execute from unsecure memory in enclave mode"))
	}
	return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: perms,
		FilledInEnclave: true, FilledEID: s.EID}, Verdict{}
}

// OuterChain returns the transitive outer closure of s: every enclave
// reachable by following OuterEIDs links, breadth-first, cycles guarded.
// With the base single-outer configuration this is a simple chain; with the
// lattice extension it is a DAG traversal. The slice must not be mutated.
//
// It sits on the page-walk hot path (the validator consults it on every
// nested-relevant TLB miss), so the common cases are allocation-free: an
// enclave with no outer returns nil at once, and an inner reuses a closure
// cached on its SECS until the association graph changes (AssociateLocked
// and EREMOVE bump the machine's association epoch).
//
// Caller holds m.mu, at least shared.
func (m *Machine) OuterChain(s *SECS) []*SECS {
	if len(s.Nested.OuterEIDs) == 0 {
		return nil
	}
	epoch := m.assocEpoch.Load()
	if oc := s.outerChain.Load(); oc != nil && oc.epoch == epoch {
		return oc.chain
	}
	var out []*SECS
	seen := map[isa.EID]bool{s.EID: true}
	frontier := []*SECS{s}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, oe := range next.Nested.OuterEIDs {
			if seen[oe] {
				continue
			}
			seen[oe] = true
			o, ok := m.secsByEID[oe]
			if !ok {
				continue
			}
			out = append(out, o)
			frontier = append(frontier, o)
		}
	}
	// Racing stores for the same epoch carry identical content, so the last
	// writer winning is fine.
	s.outerChain.Store(&outerClosure{epoch: epoch, chain: out})
	return out
}

// AssociateLocked records inner as an inner enclave of outer in both SECSs'
// association lists (NASSO's final step, once every check has passed) and
// invalidates every cached outer closure. Caller holds the machine lock
// exclusively (inside Atomically).
func (m *Machine) AssociateLocked(inner, outer *SECS) {
	inner.Nested.OuterEIDs = append(inner.Nested.OuterEIDs, outer.EID)
	outer.Nested.InnerEIDs = append(outer.Nested.InnerEIDs, inner.EID)
	m.assocEpoch.Add(1)
}

// InnerAwareTracker is the §IV-E thread tracking that sgx.New installs.
// Evicting an EPC page of an outer enclave must shoot down not only cores
// with live context in that enclave, but also cores running any of its
// (transitive) inner enclaves — those cores legitimately hold translations
// for outer pages via the Figure-6 nested validation branch. With no
// association it picks the same cores as BaselineTracker.
type InnerAwareTracker struct{}

// CoresToShootdown implements Tracker.
func (InnerAwareTracker) CoresToShootdown(m *Machine, eid isa.EID) []*Core {
	var out []*Core
	for _, c := range m.cores {
		if m.coreTouches(c, eid) {
			out = append(out, c)
		}
	}
	return out
}

// coreTouches reports whether the core has live context in enclave eid or in
// any enclave whose outer closure contains eid.
func (m *Machine) coreTouches(c *Core, eid isa.EID) bool {
	for _, e := range c.ExecutingEIDs() {
		if e == eid {
			return true
		}
		s, ok := m.secsByEID[e]
		if !ok {
			continue
		}
		for _, o := range m.OuterChain(s) {
			if o.EID == eid {
				return true
			}
		}
	}
	return false
}

// BaselineTracker implements SGX's ETRACK thread tracking, oblivious of
// inner enclaves: the cores that may hold stale translations for enclave
// eid are those with live execution context (current or suspended) in that
// enclave. Tests install it as the §IV-E bug the inner-aware tracker fixes.
type BaselineTracker struct{}

// CoresToShootdown implements Tracker.
func (BaselineTracker) CoresToShootdown(m *Machine, eid isa.EID) []*Core {
	var out []*Core
	for _, c := range m.cores {
		for _, e := range c.ExecutingEIDs() {
			if e == eid {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// BroadcastTracker is the paper's "simplified, but potentially more costly
// solution": shoot down every core in the system. Used by the ablation
// bench contrasting precise tracking with broadcast.
type BroadcastTracker struct{}

// CoresToShootdown implements Tracker.
func (BroadcastTracker) CoresToShootdown(m *Machine, eid isa.EID) []*Core {
	out := make([]*Core, len(m.cores))
	copy(out, m.cores)
	return out
}
