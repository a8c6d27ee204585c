package sgx

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

// This file implements the baseline SGX access-validation flow (the paper's
// Figure 2): the checks run while handling a TLB miss, before a translation
// may be inserted into the TLB. Package core replaces it with the Figure-6
// flow that adds the inner→outer branches.

// BaselineValidator is the unmodified SGX check.
type BaselineValidator struct{}

// abortVerdict is the shared "silently abort the access" result: reads
// return all ones, writes are dropped — SGX's abort-page semantics for
// unauthorized accesses to protected memory.
func abortVerdict() (tlb.Entry, Verdict) { return tlb.Entry{}, Verdict{Path: PathAbort} }

func faultVerdict(f *isa.Fault) (tlb.Entry, Verdict) {
	return tlb.Entry{}, Verdict{Path: PathFault, Fault: f}
}

// ChargeValidateSteps charges n validation steps as a single batched record:
// global and per-enclave counters advance by n and the clock by
// n*CostValidateStep, bit-identical to n individual charges but without the
// per-step recording overhead on the walk's hot path.
func ChargeValidateSteps(c *Core, n int64) {
	c.m.Rec.ChargeBatchTo(c.BillEID(), c.ID, trace.EvValidateStep, n, trace.CostValidateStep)
}

// Validate implements Validator. Validation steps are counted locally and
// charged as one batch on every exit path.
func (BaselineValidator) Validate(c *Core, v isa.VAddr, pte pt.PTE, op isa.Access) (tlb.Entry, Verdict) {
	m := c.m
	paddr := isa.PAddr(pte.PPN << isa.PageShift)
	var steps int64
	defer func() { ChargeValidateSteps(c, steps) }()

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
		return validateEPCM(c, s, v, pte, op, &steps)
	}

	// (C) Enclave mode, physical page outside PRM.
	steps++
	if s.ContainsVPN(v.VPN()) {
		// A virtual page inside ELRANGE must be backed by an EPC page; this
		// translation points elsewhere, so the page was evicted (or the OS
		// lies). Page fault — the kernel may reload and retry.
		return faultVerdict(isa.PF(v, op, "ELRANGE page not backed by EPC (evicted?)"))
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

// validateEPCM performs the owner-enclave EPCM checks shared by the baseline
// and nested flows: the entry must be a valid, unblocked, regular page owned
// by enclave s and recorded at exactly this virtual address, and both the
// EPCM and page-table permissions must admit the access.
func validateEPCM(c *Core, s *SECS, v isa.VAddr, pte pt.PTE, op isa.Access, steps *int64) (tlb.Entry, Verdict) {
	m := c.m
	paddr := isa.PAddr(pte.PPN << isa.PageShift)
	ent, ok := m.EPC.EntryAt(paddr)
	*steps++
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
	*steps++
	if ent.Owner != s.EID {
		return abortVerdict()
	}
	*steps++
	if ent.Vaddr != v.PageBase() {
		// The invariant: an EPC page is accessible only through the single
		// virtual address fixed by the enclave author. The OS aliasing it
		// elsewhere is an attack; abort.
		return abortVerdict()
	}
	eff := ent.Perms & pte.Perms
	if !eff.Allows(op) {
		return faultVerdict(isa.PF(v, op, "EPCM permission"))
	}
	return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: eff,
		FilledInEnclave: true, FilledEID: s.EID}, Verdict{}
}

// BaselineTracker implements SGX's ETRACK thread tracking: the cores that
// may hold stale translations for enclave eid are those with live execution
// context (current or suspended) in that enclave.
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
