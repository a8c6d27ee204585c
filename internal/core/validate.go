package core

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

// Validator implements the paper's Figure-6 access-control flow: the
// baseline SGX TLB-miss validation extended with the shaded steps that give
// an inner enclave access to its outer enclave's memory — and nothing else
// new. Every step is charged to the cost model, so deeper nesting shows up
// as longer validation latency exactly as §VIII predicts.
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
type Validator struct{}

// Validate implements sgx.Validator. Validation steps are counted locally
// and charged as one batched record on every exit path — together with the
// cached outer-closure (see outerChain) this keeps the nested walk free of
// per-step recording overhead and per-walk allocations.
func (Validator) Validate(c *sgx.Core, v isa.VAddr, pte pt.PTE, op isa.Access) (tlb.Entry, sgx.Verdict) {
	m := c.Machine()
	paddr := isa.PAddr(pte.PPN << isa.PageShift)
	var steps int64
	defer func() { sgx.ChargeValidateSteps(c, steps) }()

	if !pte.Perms.Allows(op) {
		return fault(isa.PF(v, op, "page-table permission"))
	}

	// (A) Non-enclave execution: identical to baseline SGX.
	steps++
	if !c.InEnclave() {
		if m.DRAM.PageInPRM(paddr) {
			return abort()
		}
		return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: pte.Perms}, sgx.Verdict{}
	}

	s := c.Current()

	// (B) Enclave mode, physical page inside PRM.
	steps++
	if m.DRAM.PageInPRM(paddr) {
		ent, ok := m.EPC.EntryAt(paddr)
		steps++
		if !ok || !ent.Valid {
			return abort()
		}
		if ent.Blocked {
			return fault(isa.PF(v, op, "EPC page blocked for eviction"))
		}
		if ent.Type != isa.PTReg {
			return abort()
		}
		// Baseline owner check.
		steps++
		if ent.Owner == s.EID {
			if ent.Vaddr != v.PageBase() {
				return abort()
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return fault(isa.PF(v, op, "EPCM permission"))
			}
			return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: eff,
				FilledInEnclave: true, FilledEID: s.EID}, sgx.Verdict{}
		}
		// Steps ③④⑤: the owner is not the current enclave — if the current
		// enclave is an inner enclave, re-validate against its outer
		// enclave(s), walking the inner-outer chain (multi-level §VIII).
		for _, outer := range outerChain(m, s) {
			steps++
			if ent.Owner != outer.EID {
				continue
			}
			// Step ⑤: the virtual address must match the EPCM record and
			// lie inside the outer's ELRANGE.
			steps++
			if ent.Vaddr != v.PageBase() || !outer.ContainsVPN(v.VPN()) {
				return abort()
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return fault(isa.PF(v, op, "EPCM permission (outer page)"))
			}
			m.Rec.ChargeToDetail(uint64(s.EID), c.ID, trace.EvNestedValidate, 0, v.VPN())
			return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: eff,
				FilledInEnclave: true, FilledEID: s.EID}, sgx.Verdict{Path: sgx.PathOuter}
		}
		// Peer inner enclave, unrelated enclave, or non-enclave attacker
		// mapping: abort. This is the line that confines the outer enclave
		// (and peers) away from inner-enclave memory.
		return abort()
	}

	// (C) Enclave mode, physical page outside PRM.
	steps++
	if s.ContainsVPN(v.VPN()) {
		return fault(isa.PF(v, op, "ELRANGE page not backed by EPC (evicted?)"))
	}
	// Steps ①②: within an *outer* enclave's ELRANGE but not backed by an
	// EPC page — the outer page was evicted; page fault so the kernel
	// reloads it.
	for _, outer := range outerChain(m, s) {
		steps++
		if outer.ContainsVPN(v.VPN()) {
			return fault(isa.PF(v, op, "outer ELRANGE page not backed by EPC (evicted?)"))
		}
	}
	// Unsecure memory access from enclave mode: executable disabled.
	perms := pte.Perms &^ isa.PermX
	if !perms.Allows(op) {
		return fault(isa.PF(v, op, "execute from unsecure memory in enclave mode"))
	}
	return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: perms,
		FilledInEnclave: true, FilledEID: s.EID}, sgx.Verdict{}
}

func abort() (tlb.Entry, sgx.Verdict) { return tlb.Entry{}, sgx.Verdict{Path: sgx.PathAbort} }

func fault(f *isa.Fault) (tlb.Entry, sgx.Verdict) {
	return tlb.Entry{}, sgx.Verdict{Path: sgx.PathFault, Fault: f}
}
