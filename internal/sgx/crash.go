package sgx

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/trace"
)

// This file implements enclave fault containment: an enclave whose protected
// memory failed MEE integrity verification, or whose trusted code crashed, is
// *poisoned* — entry and resumption are refused with a machine-check fault,
// its execution context can be force-scrubbed off a core, and EREMOVE of its
// SECS clears the mark so the host can rebuild it. Real SGX hardware
// drops-and-locks the whole package on an MEE machine check; the
// finer-grained per-enclave containment modeled here is what lets the
// self-healing supervisor (package sdk) tear down and restart only the
// victim.

// poison marks an enclave poisoned. The map lives under its own leaf lock
// (pmu), so this is callable from any context — including the MEE's
// integrity-failure callback, which fires inside the cache hierarchy on the
// read-locked access path. The first reason sticks; repeat poisonings of a
// dying enclave do not rewrite it.
func (m *Machine) poison(eid isa.EID, reason string) {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	if _, ok := m.poisoned[eid]; ok {
		return
	}
	m.poisoned[eid] = reason
	m.Rec.ChargeTo(uint64(eid), trace.NoCore, trace.EvFaultMC, 0)
}

// PoisonEnclave marks an enclave poisoned: further EENTER/ERESUME/NEENTER
// are refused with a machine-check fault until the enclave is EREMOVEd.
// Used by the SDK when trusted code crashes inside the enclave.
func (m *Machine) PoisonEnclave(eid isa.EID, reason string) {
	m.poison(eid, reason)
}

// PoisonedReason reports whether the enclave is poisoned and why.
func (m *Machine) PoisonedReason(eid isa.EID) (string, bool) {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	r, ok := m.poisoned[eid]
	return r, ok
}

// EmergencyExit force-evacuates a core from enclave mode after a contained
// crash: registers are scrubbed, the TLB flushed, the current TCS and every
// TCS holding a suspended frame of the nested chain are scrubbed and
// released, and the core returns to non-enclave mode. It returns the EIDs of
// every enclave whose context was torn down (innermost first), so the caller
// can attribute the crash. A no-op returning nil when the core is not in
// enclave mode.
//
// This is deliberately *not* an architectural instruction: it models the
// microcode cleanup a machine check performs so that no enclave secrets
// survive in registers or suspended frames of a crashed chain.
func (m *Machine) EmergencyExit(c *Core) []isa.EID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return nil
	}
	var torn []isa.EID
	torn = append(torn, c.cur.EID)
	torn = append(torn, c.curTCS.retChainEIDs()...)
	// Scrub the whole suspended-frame chain: each TCS in it drops its
	// frame, saved state, and busy claim.
	for t := c.curTCS; t != nil; {
		next := t.ret.tcs
		t.ret = enclaveFrame{}
		t.ssa = enclaveFrame{}
		t.Busy = false
		t = next
	}
	c.Regs.Scrub()
	c.tlb.FlushAll()
	c.inEnclave = false
	c.cur = nil
	c.curTCS = nil
	c.tlb.BillEID = trace.NoEID
	m.Rec.ChargeTo(uint64(torn[0]), c.ID, trace.EvAEX, trace.CostAEX)
	return torn
}

// ScrubTCS force-idles a TCS that was stranded busy by a contained crash
// (e.g. the core was evacuated by a failed ERESUME after the owning enclave
// was poisoned). Saved state and suspended frames are discarded.
func (m *Machine) ScrubTCS(t *TCS) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t.ssa = enclaveFrame{}
	t.ret = enclaveFrame{}
	t.Busy = false
}
