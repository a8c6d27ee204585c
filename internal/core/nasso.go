package core

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

// NASSO is the kernel-privilege instruction that associates an inner/outer
// enclave pair after both are initialized (paper §IV-B, Figure 4).
//
// The instruction reads MRENCLAVE and MRSIGNER from each SECS and validates
// them against the expected values carried in the *other* enclave's signed
// file: the inner enclave's certificate must name the outer's measurement
// and vice versa. Only then are the SECS association fields updated. This is
// the mechanism behind "secure binding of inner and outer enclaves"
// (§VII-B): the kernel can invoke NASSO, but it cannot forge a pairing the
// enclave authors did not sign off on.
func (e *Extension) NASSO(inner, outer *sgx.SECS) error {
	return e.m.Atomically(func() error {
		if inner == nil || outer == nil {
			return isa.GP("NASSO: nil enclave")
		}
		if inner.EID == outer.EID {
			return isa.GP("NASSO: enclave %d cannot nest within itself", inner.EID)
		}
		if !inner.Initialized || !outer.Initialized {
			return isa.GP("NASSO: both enclaves must be initialized (EINIT) first")
		}
		if inner.Nested.HasOuter(outer.EID) {
			return isa.GP("NASSO: enclaves %d and %d already associated", inner.EID, outer.EID)
		}
		if len(inner.Nested.OuterEIDs) > 0 && !e.cfg.AllowMultipleOuters {
			return isa.GP("NASSO: inner enclave %d already has an outer enclave (single-outer model)", inner.EID)
		}

		// Mutual measurement validation against the signed enclave files.
		if inner.Cert == nil || !inner.Cert.AllowsOuter(outer.MRENCLAVE) {
			return isa.GP("NASSO: inner enclave %d's certificate does not authorize outer measurement %v",
				inner.EID, outer.MRENCLAVE)
		}
		if outer.Cert == nil || !outer.Cert.AllowsInner(inner.MRENCLAVE) {
			return isa.GP("NASSO: outer enclave %d's certificate does not authorize inner measurement %v",
				outer.EID, inner.MRENCLAVE)
		}

		// The association must not create a cycle: the outer's own outer
		// closure must not contain the inner.
		for _, o := range e.m.OuterChain(outer) {
			if o.EID == inner.EID {
				return isa.GP("NASSO: association would create a nesting cycle")
			}
		}

		// Depth limit: the inner's subtree depth stacked on the outer's
		// depth must fit the configured maximum.
		if e.cfg.MaxDepth > 0 {
			if depthOf(e.m, outer)+innerHeight(e.m, inner) > e.cfg.MaxDepth {
				return isa.GP("NASSO: association exceeds maximum nesting depth %d", e.cfg.MaxDepth)
			}
		}

		// ELRANGEs of associated enclaves share one process address space
		// and must not overlap, or the validator's region tests would be
		// ambiguous. (Real deployments guarantee this by construction; the
		// instruction makes it explicit.)
		for _, o := range append(e.m.OuterChain(outer), outer) {
			if rangesOverlap(inner, o) {
				return isa.GP("NASSO: ELRANGE of inner %d overlaps enclave %d", inner.EID, o.EID)
			}
		}

		// TLB-coherence quiescence: association changes the accessible-region
		// lattice for every core currently executing the inner enclave or one
		// of its transitive inners — a vaddr in the new outer's ELRANGE may
		// already be cached in such a core's TLB as an ordinary unsecure
		// mapping, which the association retroactively turns into an
		// enclave-range mapping outside the EPC. Like SGX's layout-change
		// instructions, NASSO requires the affected subtree to be quiescent.
		// (Found by exhaustive schedule exploration; regress_test.go
		// "nasso-while-inner-resident".)
		for _, aff := range append(innerClosure(e.m, inner), inner) {
			for _, c := range e.m.Cores() {
				if cur := c.Current(); cur != nil && cur.EID == aff.EID {
					return isa.GP("NASSO: core %d is executing enclave %d; inner subtree must be quiescent",
						c.ID, aff.EID)
				}
			}
		}

		e.m.AssociateLocked(inner, outer)
		return nil
	})
}

// innerClosure returns the transitive inner enclaves of s (not including s
// itself). Machine lock held by caller.
func innerClosure(m *sgx.Machine, s *sgx.SECS) []*sgx.SECS {
	var out []*sgx.SECS
	seen := map[isa.EID]bool{s.EID: true}
	frontier := []*sgx.SECS{s}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, ie := range next.Nested.InnerEIDs {
			if seen[ie] {
				continue
			}
			seen[ie] = true
			in, ok := m.ResolveEID(ie)
			if !ok {
				continue
			}
			out = append(out, in)
			frontier = append(frontier, in)
		}
	}
	return out
}

// innerHeight returns the height of the inner-enclave tree rooted at s
// (1 if s has no inners). Machine lock held by caller.
func innerHeight(m *sgx.Machine, s *sgx.SECS) int {
	max := 0
	for _, ie := range s.Nested.InnerEIDs {
		if in, ok := m.ResolveEID(ie); ok {
			if h := innerHeight(m, in); h > max {
				max = h
			}
		}
	}
	return max + 1
}

func rangesOverlap(a, b *sgx.SECS) bool {
	aEnd := uint64(a.Base) + a.Size
	bEnd := uint64(b.Base) + b.Size
	return uint64(a.Base) < bEnd && uint64(b.Base) < aEnd
}
