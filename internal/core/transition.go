package core

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// NEENTER transitions between associated enclaves without any detour
// through the untrusted world (paper §IV-B). Before the transition it
// checks that the destination enclave exists and is *associated* with the
// currently executing enclave — an inner enclave of it, or (upward) one of
// its outer enclaves — that the destination TCS is idle, and that the core
// is in enclave mode; any invalid invocation is a general-protection fault.
// On success the current context is saved to the destination TCS's reserved
// frame, the TLB is flushed, the TCS is marked busy, and control transfers
// to the destination's entry point.
//
// The downward direction (outer→inner) is the paper's base semantics. The
// upward direction (inner→outer) implements n_ocall for inner enclaves that
// were entered directly from untrusted code (the §VI-B deployments, where
// clients ecall into their per-user inner enclave and the inner calls the
// shared service): it grants the inner nothing new — the asymmetric
// permission model already gives it full access to the outer enclave's
// memory — while keeping the transition inside protected mode.
func (e *Extension) NEENTER(c *sgx.Core, target *sgx.SECS, tcsVaddr isa.VAddr) error {
	return e.m.Atomically(func() error {
		if !c.InEnclave() {
			return isa.GP("NEENTER: core %d not in enclave mode", c.ID)
		}
		cur := c.Current()
		if target == nil || !target.Initialized {
			return isa.GP("NEENTER: destination enclave does not exist or is uninitialized")
		}
		if e.m.PoisonedLocked(target.EID) {
			return isa.MC("NEENTER: enclave %d poisoned", target.EID)
		}
		if !cur.Nested.HasInner(target.EID) && !cur.Nested.HasOuter(target.EID) {
			return isa.GP("NEENTER: enclave %d is not associated with %d", target.EID, cur.EID)
		}
		t, err := target.FindTCS(tcsVaddr)
		if err != nil {
			return isa.GP("NEENTER: %v", err)
		}
		if t.Busy {
			return isa.GP("NEENTER: destination TCS %#x busy", uint64(tcsVaddr))
		}
		c.SwitchToNestedLocked(target, t)
		e.m.Rec.ChargeTo(uint64(target.EID), c.ID, trace.EvNEENTER, trace.CostNEENTER)
		return nil
	})
}

// NEEXIT transitions from an inner enclave back to the outer enclave it was
// entered from. It clears all the information of the inner enclave —
// flushing the TLB and zeroing the register file — releases the TCS, and
// restores the suspended outer context. Executing NEEXIT outside a nested
// entry is a general-protection fault.
func (e *Extension) NEEXIT(c *sgx.Core) error {
	return e.m.Atomically(func() error {
		if !c.InEnclave() {
			return isa.GP("NEEXIT: core %d not in enclave mode", c.ID)
		}
		t := c.CurrentTCS()
		if t == nil || !t.Ret() {
			return isa.GP("NEEXIT: no suspended outer context (not a nested entry)")
		}
		leaving := c.BillEID()
		c.SwitchFromNestedLocked()
		e.m.Rec.ChargeTo(leaving, c.ID, trace.EvNEEXIT, trace.CostNEEXIT)
		return nil
	})
}
