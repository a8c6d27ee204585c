package sgx

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/trace"
)

// This file implements the enclave entry/exit instructions. The TLB is
// flushed on *every* protection-domain transition — the mechanism that
// upholds the invariant "TLB must always contain only valid translations".
//
// Suspended outer-enclave context during nested execution lives in the inner
// TCS (the paper: NEENTER "saves the current context ... to a reserved stack
// frame of the entering inner enclave"), so it survives ocall round trips
// and asynchronous exits of the inner enclave.

// Ret reports whether the TCS holds the suspended outer-enclave frame of a
// nested entry (false for top-level entries).
func (t *TCS) Ret() bool { return !t.ret.empty() }

// EEnter enters an initialized enclave through the TCS at tcsVaddr.
// With resume=false the TCS must be idle and is claimed; with resume=true
// the caller returns into a TCS it already holds (the ocall-return path).
func (m *Machine) EEnter(c *Core, s *SECS, tcsVaddr isa.VAddr, resume bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c.inEnclave {
		return isa.GP("EENTER: core %d already in enclave mode", c.ID)
	}
	if s == nil || !s.Initialized {
		return isa.GP("EENTER: enclave not initialized")
	}
	if reason, ok := m.PoisonedReason(s.EID); ok {
		return isa.MC("EENTER: enclave %d poisoned: %s", s.EID, reason)
	}
	t, err := s.FindTCS(tcsVaddr)
	if err != nil {
		return isa.GP("EENTER: %v", err)
	}
	if !m.liveTCS(s, t) {
		return isa.GP("EENTER: enclave %d or its TCS %#x was removed", s.EID, uint64(tcsVaddr))
	}
	if resume {
		if !t.Busy {
			return isa.GP("EENTER: resume into idle TCS %#x", uint64(tcsVaddr))
		}
	} else {
		if t.Busy {
			return isa.GP("EENTER: TCS %#x busy", uint64(tcsVaddr))
		}
		if !t.ret.empty() {
			return isa.GP("EENTER: TCS %#x holds a suspended nested frame", uint64(tcsVaddr))
		}
		t.Busy = true
	}
	c.tlb.FlushAll()
	c.inEnclave = true
	c.cur = s
	c.curTCS = t
	c.tlb.BillEID = uint64(s.EID)
	if resume {
		m.Rec.ChargeTo(uint64(s.EID), c.ID, trace.EvEENTER, trace.CostEENTERResume)
	} else {
		m.Rec.ChargeTo(uint64(s.EID), c.ID, trace.EvEENTER, trace.CostEENTER)
	}
	return nil
}

// EExit leaves enclave mode synchronously. With release=true the TCS is
// freed (the final return of an ecall); release=false keeps it claimed for
// a later resuming EENTER (the ocall path).
//
// EEXIT works from inner and outer enclaves alike (paper Figure 5: inner or
// outer enclaves transit directly to non-enclave mode); a release-exit from
// a nested context without NEEXITing first is a #GP, since it would strand
// the suspended outer frame.
func (m *Machine) EExit(c *Core, release bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return isa.GP("EEXIT: core %d not in enclave mode", c.ID)
	}
	t := c.curTCS
	if release {
		if !t.ret.empty() {
			return isa.GP("EEXIT: releasing TCS with suspended outer frame (NEEXIT first)")
		}
		t.Busy = false
	}
	c.tlb.FlushAll()
	cur := c.cur
	c.inEnclave = false
	c.cur = nil
	c.curTCS = nil
	c.tlb.BillEID = trace.NoEID
	m.Rec.ChargeTo(uint64(cur.EID), c.ID, trace.EvEEXIT, trace.CostEEXIT)
	return nil
}

// AEX is an asynchronous enclave exit: a hardware exception or interrupt
// while in enclave mode. The full execution context — including the nested
// frame chain head — is saved into the TCS's state-save area, the register
// file is scrubbed, the TLB flushed, and the core returns to non-enclave
// mode so the kernel's handler can run.
func (m *Machine) AEX(c *Core) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aexLocked(c)
}

func (m *Machine) aexLocked(c *Core) error {
	if !c.inEnclave {
		return isa.GP("AEX: core %d not in enclave mode", c.ID)
	}
	t := c.curTCS
	t.ssa = enclaveFrame{secs: c.cur, tcs: t, regs: c.Regs}
	interrupted := c.cur.EID
	c.Regs.Scrub()
	c.tlb.FlushAll()
	c.inEnclave = false
	c.cur = nil
	c.curTCS = nil
	c.tlb.BillEID = trace.NoEID
	sp := m.Rec.BeginSpan(c.ID, uint64(interrupted), "aex")
	m.Rec.ChargeTo(uint64(interrupted), c.ID, trace.EvAEX, trace.CostAEX)
	sp.End()
	return nil
}

// EResume re-enters an enclave after an AEX, restoring the saved context.
func (m *Machine) EResume(c *Core, t *TCS) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c.inEnclave {
		return isa.GP("ERESUME: core %d already in enclave mode", c.ID)
	}
	f := &t.ssa
	if f.empty() {
		return isa.GP("ERESUME: TCS has no saved state")
	}
	// Refuse to resume a poisoned enclave *before* consuming the saved
	// state, so the caller can still EmergencyExit/ScrubTCS cleanly.
	if reason, ok := m.PoisonedReason(f.secs.EID); ok {
		return isa.MC("ERESUME: enclave %d poisoned: %s", f.secs.EID, reason)
	}
	if !m.liveTCS(f.secs, f.tcs) {
		return isa.GP("ERESUME: enclave %d or its TCS was removed", f.secs.EID)
	}
	s := f.secs
	c.tlb.FlushAll()
	c.inEnclave = true
	c.cur = s
	c.curTCS = f.tcs
	c.Regs = f.regs
	*f = enclaveFrame{}
	c.tlb.BillEID = uint64(s.EID)
	m.Rec.ChargeTo(uint64(s.EID), c.ID, trace.EvEENTER, trace.CostEENTER)
	return nil
}

// NEENTER transitions between associated enclaves without any detour
// through the untrusted world (paper §IV-B). Before the transition it
// checks that the destination enclave exists and is *associated* with the
// currently executing enclave — an inner enclave of it, or (upward) one of
// its outer enclaves — that the destination TCS is idle, and that the core
// is in enclave mode; any invalid invocation is a general-protection fault.
// On success the current context and registers are saved to the
// destination TCS's reserved frame, the TLB is flushed, the TCS is marked
// busy, and control transfers to the destination's entry point.
//
// The downward direction (outer→inner) is the paper's base semantics. The
// upward direction (inner→outer) implements n_ocall for inner enclaves that
// were entered directly from untrusted code (the §VI-B deployments, where
// clients ecall into their per-user inner enclave and the inner calls the
// shared service): it grants the inner nothing new — the asymmetric
// permission model already gives it full access to the outer enclave's
// memory — while keeping the transition inside protected mode.
func (m *Machine) NEENTER(c *Core, target *SECS, tcsVaddr isa.VAddr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return isa.GP("NEENTER: core %d not in enclave mode", c.ID)
	}
	cur := c.cur
	if target == nil || !target.Initialized {
		return isa.GP("NEENTER: destination enclave does not exist or is uninitialized")
	}
	if _, ok := m.PoisonedReason(target.EID); ok {
		return isa.MC("NEENTER: enclave %d poisoned", target.EID)
	}
	if !cur.Nested.hasInner(target.EID) && !cur.Nested.hasOuter(target.EID) {
		return isa.GP("NEENTER: enclave %d is not associated with %d", target.EID, cur.EID)
	}
	t, err := target.FindTCS(tcsVaddr)
	if err != nil {
		return isa.GP("NEENTER: %v", err)
	}
	if !m.liveTCS(target, t) {
		return isa.GP("NEENTER: enclave %d or its TCS %#x was removed", target.EID, uint64(tcsVaddr))
	}
	if t.Busy {
		return isa.GP("NEENTER: destination TCS %#x busy", uint64(tcsVaddr))
	}
	t.ret = enclaveFrame{secs: cur, tcs: c.curTCS, regs: c.Regs}
	t.Busy = true
	c.tlb.FlushAll()
	c.cur = target
	c.curTCS = t
	c.tlb.BillEID = uint64(target.EID)
	m.Rec.ChargeTo(uint64(target.EID), c.ID, trace.EvNEENTER, trace.CostNEENTER)
	return nil
}

// NEEXIT transitions from an inner enclave back to the outer enclave it was
// entered from. It clears all the information of the inner enclave —
// zeroing the register file and flushing the TLB — releases the TCS, and
// restores the suspended outer context. Executing NEEXIT outside a nested
// entry is a general-protection fault, and so is returning into an outer
// enclave or TCS that was removed while the inner ran: the frame then stays
// in place, for the runtime to evacuate the core.
func (m *Machine) NEEXIT(c *Core) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return isa.GP("NEEXIT: core %d not in enclave mode", c.ID)
	}
	t := c.curTCS
	if t == nil || t.ret.empty() {
		return isa.GP("NEEXIT: no suspended outer context (not a nested entry)")
	}
	f := &t.ret
	if !m.liveTCS(f.secs, f.tcs) {
		return isa.GP("NEEXIT: enclave %d or its TCS %#x was removed", f.secs.EID, uint64(f.tcs.Vaddr))
	}
	leaving := c.cur
	outer := f.secs
	t.Busy = false
	c.Regs.Scrub()
	c.tlb.FlushAll()
	c.cur = outer
	c.curTCS = f.tcs
	c.Regs = f.regs
	*f = enclaveFrame{}
	c.tlb.BillEID = uint64(outer.EID)
	m.Rec.ChargeTo(uint64(leaving.EID), c.ID, trace.EvNEEXIT, trace.CostNEEXIT)
	return nil
}

// LoadCR3 installs the address space p on core c, as the kernel's context
// switch does (MOV to CR3), and flushes the core's TLB. It is refused in
// enclave mode. It runs under the machine lock, because EWB reads every
// core's TLB under it.
func (m *Machine) LoadCR3(c *Core, p *pt.Table) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c.inEnclave {
		return isa.GP("CR3 load on core %d in enclave mode", c.ID)
	}
	c.cr3 = p
	c.tlb.FlushAll()
	return nil
}

// INVLPG drops core c's translation of v, if it has one, as the kernel's
// INVLPG does after changing a PTE. It works in either mode and charges
// nothing. It runs under the machine lock, as LoadCR3 does.
func (m *Machine) INVLPG(c *Core, v isa.VAddr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c.tlb.FlushVPN(v.VPN())
}

// liveTCS reports whether s is still the live SECS of its EID and t's EPC
// page is still a valid TCS page of s at t's vaddr. EREMOVE frees both
// without touching the *SECS and *TCS a caller may hold, so each entry
// instruction asks, lest a thread run in a destroyed enclave or through a
// removed TCS. Caller holds m.mu.
func (m *Machine) liveTCS(s *SECS, t *TCS) bool {
	if m.secsByEID[s.EID] != s {
		return false
	}
	ent := m.epc.Entry(t.page)
	return ent.Valid && ent.Type == isa.PTTCS && ent.Owner == s.EID && ent.Vaddr == t.Vaddr
}

// retChainEIDs walks the suspended-frame chain from t outward.
func (t *TCS) retChainEIDs() []isa.EID {
	var out []isa.EID
	for cur := t; cur != nil && !cur.ret.empty(); cur = cur.ret.tcs {
		out = append(out, cur.ret.secs.EID)
	}
	return out
}
