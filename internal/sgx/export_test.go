package sgx

import "nestedenclave/internal/isa"

// PagingStateOf reports how many version lanes and unspent version-array
// slots the machine keeps for enclave eid.
func (m *Machine) PagingStateOf(eid isa.EID) (lanes, slots int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k := range m.blobVer {
		if k.owner == eid {
			lanes++
		}
	}
	for _, o := range m.vaSlots {
		if o == eid {
			slots++
		}
	}
	return lanes, slots
}

// Link records inner as an inner enclave of outer, as NASSO's last step
// does, without NASSO's certificate and layout checks.
func (m *Machine) Link(inner, outer *SECS) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inner.Nested.OuterEIDs = append(inner.Nested.OuterEIDs, outer.EID)
	outer.Nested.InnerEIDs = append(outer.Nested.InnerEIDs, inner.EID)
	m.assocEpoch.Add(1)
}

// HasInner reports whether eid is one of the enclave's inner enclaves.
func (n *NestedInfo) HasInner(eid isa.EID) bool { return n.hasInner(eid) }

// HasOuter reports whether eid is one of the enclave's outer enclaves.
func (n *NestedInfo) HasOuter(eid isa.EID) bool { return n.hasOuter(eid) }
