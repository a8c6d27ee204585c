// Package core implements the paper's contribution: the nested-enclave
// extension to SGX.
//
// The extension consists of (paper §IV):
//
//   - Metadata: OuterEIDs/InnerEIDs association lists stored in reserved
//     SECS fields (Figure 3; the fields themselves live in sgx.SECS.Nested).
//   - Instructions (Table I): NASSO (kernel; associate a validated
//     inner/outer pair), NEENTER/NEEXIT (user; direct transitions between
//     outer and inner enclaves with TLB flush and register scrubbing), and
//     NEREPORT (user; attestation report covering the association
//     relationship).
//   - Access validation: the Figure-6 flow — on an EPCM owner mismatch or an
//     out-of-ELRANGE virtual address, an inner enclave's access is
//     re-validated against its outer enclave(s), giving the asymmetric
//     permission at the heart of the model (inner reads outer; never the
//     reverse). The flow is sgx.Figure6Validator, which every machine runs;
//     this package only creates the links it follows.
//   - Thread tracking (§IV-E): EPC eviction of an outer page must shoot down
//     TLBs of cores running its inner enclaves too. The policy is
//     sgx.InnerAwareTracker, also every machine's own.
//
// Section VIII's extensions are both implemented and feature-gated by
// Config: multi-level nesting (the validator follows the chain of
// inner-outer links) and multiple outer enclaves per inner (a lattice).
package core

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

// Config selects the nesting model.
type Config struct {
	// MaxDepth bounds the nesting depth (2 = the paper's base inner/outer
	// model). 0 means unlimited (§VIII multi-level nesting).
	MaxDepth int
	// AllowMultipleOuters enables the §VIII lattice extension: an inner
	// enclave may bind to more than one outer enclave.
	AllowMultipleOuters bool
}

// TwoLevel is the paper's base configuration: two levels, single outer.
func TwoLevel() Config { return Config{MaxDepth: 2} }

// Extension carries the nested-enclave instructions (NASSO, NEENTER/NEEXIT,
// NEREPORT) for one machine under one nesting model.
type Extension struct {
	m   *sgx.Machine
	cfg Config
}

// Enable returns the handle for the new instructions on m under the given
// nesting model. It installs nothing: the Figure-6 validator and the
// inner-aware tracker are every machine's own (sgx.Figure6Validator,
// sgx.InnerAwareTracker), and they differ from baseline SGX only once NASSO
// has linked a pair.
func Enable(m *sgx.Machine, cfg Config) *Extension {
	return &Extension{m: m, cfg: cfg}
}

// Machine returns the underlying machine.
func (e *Extension) Machine() *sgx.Machine { return e.m }

// Config returns the active nesting configuration.
func (e *Extension) Config() Config { return e.cfg }

// depthOf returns the nesting depth of the enclave: 1 for a top-level
// enclave, 2 for an inner of a top-level outer, etc. With the lattice
// extension it returns the longest path. Machine lock held by caller.
func depthOf(m *sgx.Machine, s *sgx.SECS) int {
	return depthOfRec(m, s, map[isa.EID]bool{})
}

func depthOfRec(m *sgx.Machine, s *sgx.SECS, visiting map[isa.EID]bool) int {
	if visiting[s.EID] {
		return 1 // cycle guard; NASSO prevents cycles anyway
	}
	visiting[s.EID] = true
	defer delete(visiting, s.EID)
	max := 0
	for _, oe := range s.Nested.OuterEIDs {
		if o, ok := m.ResolveEID(oe); ok {
			if d := depthOfRec(m, o, visiting); d > max {
				max = d
			}
		}
	}
	return max + 1
}
