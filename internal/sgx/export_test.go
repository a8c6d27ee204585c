package sgx

import (
	"nestedenclave/internal/cache"
	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/tlb"
)

// This file hands the package's own tests the machine state and accessors
// that untrusted code has no business reading. The Machine helpers are
// functions rather than methods, so a test binary's Machine has the method
// set TestMachineSurface pins.

// EPCOf returns the machine's EPC allocator and EPCM.
func EPCOf(m *Machine) *epc.Manager { return m.epc }

// LLCOf returns the machine's last-level cache.
func LLCOf(m *Machine) *cache.Cache { return m.llc }

// InsertTLB plants e in core c's TLB, as no instruction would.
func InsertTLB(c *Core, e tlb.Entry) { c.tlb.Insert(e) }

// PagingStateOf reports how many version lanes the machine keeps for
// enclave eid, and how many of them have a blob out.
func PagingStateOf(m *Machine, eid isa.EID) (lanes, out int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, l := range m.blobLanes {
		if k.owner == eid {
			lanes++
			if l.out {
				out++
			}
		}
	}
	return lanes, out
}

// Link records inner as an inner enclave of outer, as NASSO's last step
// does, without NASSO's certificate and layout checks.
func Link(m *Machine, inner, outer *SECS) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inner.Nested.OuterEIDs = append(inner.Nested.OuterEIDs, outer.EID)
	outer.Nested.InnerEIDs = append(outer.Nested.InnerEIDs, inner.EID)
	m.assocEpoch.Add(1)
}

// NestingDepth returns how many enclave frames are active on the core
// (1 inside a top-level enclave, 2 inside an inner enclave, ...).
func (c *Core) NestingDepth() int { return len(c.ExecutingEIDs()) }

// ExecutingEIDs returns the EIDs of every enclave with live context on the
// core: the current enclave and all suspended outer frames, in the order
// the ETRACK thread-tracking policies walk them (anyFrame).
func (c *Core) ExecutingEIDs() []isa.EID {
	var out []isa.EID
	c.anyFrame(func(e isa.EID) bool {
		out = append(out, e)
		return false
	})
	return out
}

// RetFrameEID returns the EID of the suspended outer enclave saved in the
// TCS, or NoEnclave.
func (t *TCS) RetFrameEID() isa.EID {
	if t.ret.empty() {
		return isa.NoEnclave
	}
	return t.ret.secs.EID
}

// IsInner reports whether the enclave is bound to at least one outer.
func (n *NestedInfo) IsInner() bool { return len(n.OuterEIDs) > 0 }

// IsOuter reports whether any inner enclave is bound to this enclave.
func (n *NestedInfo) IsOuter() bool { return len(n.InnerEIDs) > 0 }

// HasInner reports whether eid is one of the enclave's inner enclaves.
func (n *NestedInfo) HasInner(eid isa.EID) bool { return n.hasInner(eid) }

// HasOuter reports whether eid is one of the enclave's outer enclaves.
func (n *NestedInfo) HasOuter(eid isa.EID) bool { return n.hasOuter(eid) }
