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
