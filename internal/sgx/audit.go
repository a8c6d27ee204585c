package sgx

import (
	"fmt"

	"nestedenclave/internal/isa"
)

// AuditInvariants checks the paper's four §VII-A security invariants over
// every core's TLB against the current protection state, and returns one
// message per violation (empty = clean):
//
//  1. Out of enclave mode, no TLB entry maps a PRM physical page.
//  2. In enclave mode, a vaddr outside the enclave's ELRANGE (and outside
//     every transitive outer's ELRANGE) never maps to PRM.
//  3. In enclave mode, a vaddr inside ELRANGE maps only through an EPCM
//     entry owned by this enclave and recorded at exactly this vaddr.
//  4. (nested) In enclave mode, a vaddr inside an outer enclave's ELRANGE
//     maps only through an EPCM entry owned by that outer and recorded at
//     exactly this vaddr.
//
// The region owner of each entry comes from the audit's own walk over
// SECS.Nested.OuterEIDs, not from the Figure-6 validator, so a validator bug
// cannot blind it. It is the one auditor: the differential harness runs it
// after every step, the nested property test after every random operation,
// the chaos soak at the end of a campaign, and the adversary campaign before
// it grants a defended verdict.
func (m *Machine) AuditInvariants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, c := range m.cores {
		var cur *SECS
		if c.inEnclave {
			cur = c.cur
		}
		for _, e := range c.tlb.Entries() {
			pa := isa.PAddr(e.PPN << isa.PageShift)
			v := isa.VAddr(e.VPN << isa.PageShift)
			inPRM := m.DRAM.PageInPRM(pa)
			if cur == nil {
				if inPRM {
					out = append(out, fmt.Sprintf("inv1: core %d out of enclave maps %#x -> PRM %#x",
						c.ID, uint64(v), uint64(pa)))
				}
				continue
			}
			owner := m.regionOwner(cur, e.VPN)
			if owner == nil {
				if inPRM {
					out = append(out, fmt.Sprintf("inv2: core %d enclave %d maps out-of-ELRANGE %#x -> PRM",
						c.ID, cur.EID, uint64(v)))
				}
				continue
			}
			inv := "inv3"
			if owner != cur {
				inv = "inv4"
			}
			ent, ok := m.epc.EntryAt(pa)
			switch {
			case !inPRM:
				out = append(out, fmt.Sprintf("%s: core %d enclave %d maps ELRANGE %#x of enclave %d outside PRM",
					inv, c.ID, cur.EID, uint64(v), owner.EID))
			case !ok || !ent.Valid:
				out = append(out, fmt.Sprintf("%s: core %d enclave %d maps %#x to invalid EPC page",
					inv, c.ID, cur.EID, uint64(v)))
			case ent.Owner != owner.EID:
				out = append(out, fmt.Sprintf("%s: core %d enclave %d maps %#x to EPC of enclave %d, region owner %d",
					inv, c.ID, cur.EID, uint64(v), ent.Owner, owner.EID))
			case ent.Vaddr != v:
				out = append(out, fmt.Sprintf("%s: core %d enclave %d maps %#x to EPC page recorded at %#x",
					inv, c.ID, cur.EID, uint64(v), uint64(ent.Vaddr)))
			}
		}
	}
	return out
}

// regionOwner returns the enclave whose ELRANGE contains the vpn: cur, one
// of its transitive outers (breadth first over SECS.Nested.OuterEIDs), or
// nil. Caller holds m.mu.
func (m *Machine) regionOwner(cur *SECS, vpn uint64) *SECS {
	if cur.ContainsVPN(vpn) {
		return cur
	}
	frontier := append([]isa.EID(nil), cur.Nested.OuterEIDs...)
	seen := map[isa.EID]bool{}
	for len(frontier) > 0 {
		eid := frontier[0]
		frontier = frontier[1:]
		if seen[eid] {
			continue
		}
		seen[eid] = true
		o, ok := m.secsByEID[eid]
		if !ok {
			continue
		}
		if o.ContainsVPN(vpn) {
			return o
		}
		frontier = append(frontier, o.Nested.OuterEIDs...)
	}
	return nil
}
