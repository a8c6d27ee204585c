package sgx

import (
	"fmt"
	"sync/atomic"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
)

// SECS is the SGX Enclave Control Structure: the metadata defining an
// enclave. Architecturally it occupies a PT_SECS EPC page that software can
// never map; the simulator keeps the structure in machine-private state and
// charges the EPC page for it.
//
// The Nested field is the paper's Figure-3 extension: the outer/inner
// association lists stored in reserved SECS space. Baseline SGX ignores it;
// NASSO populates it and EREMOVE unlinks it.
type SECS struct {
	// EID uniquely identifies the enclave (stand-in for the physical
	// address of the SECS page, which is unique per enclave).
	EID isa.EID
	// Base and Size define ELRANGE, the contiguous virtual address range
	// fixed at creation.
	Base isa.VAddr
	Size uint64
	// Attributes is the attribute mask measured at ECREATE (debug, etc.).
	Attributes uint64

	// MRENCLAVE and MRSIGNER are fixed by EINIT.
	MRENCLAVE measure.Digest
	MRSIGNER  measure.Digest
	// Cert is the SIGSTRUCT the enclave was initialized with. NASSO reads
	// its expected-association lists.
	Cert *measure.SigStruct

	// Initialized flips when EINIT succeeds; only then may threads enter.
	Initialized bool

	// Nested holds the paper's new SECS fields.
	Nested NestedInfo

	// builder accumulates MRENCLAVE until EINIT.
	builder *measure.Builder
	// secsPage is the EPC page index backing this SECS.
	secsPage int
	// tcss are the enclave's thread control structures.
	tcss []*TCS

	// outerChain caches this enclave's transitive outer closure, keyed to
	// the machine's association epoch (see Machine.OuterChain). The
	// page-walk hot path reads it lock-free; NASSO and EREMOVE invalidate it
	// by bumping the epoch.
	outerChain atomic.Pointer[outerClosure]
}

// outerClosure is one epoch's snapshot of an enclave's transitive outer
// enclaves. The chain slice is immutable once stored.
type outerClosure struct {
	epoch uint64
	chain []*SECS
}

// NestedInfo is the reserved-field extension of Figure 3.
type NestedInfo struct {
	// OuterEIDs lists the outer enclaves this enclave is bound to as an
	// inner. The paper's base design allows exactly one ("an inner enclave
	// can be associated only with a single outer enclave"); the §VIII
	// multiple-outer extension allows several. A nil/empty list means the
	// enclave is not an inner enclave (OuterEID = 0 in the paper).
	OuterEIDs []isa.EID
	// InnerEIDs lists the inner enclaves bound to this enclave as outer.
	InnerEIDs []isa.EID
}

// hasInner reports whether eid is one of this enclave's inner enclaves.
func (n *NestedInfo) hasInner(eid isa.EID) bool {
	for _, e := range n.InnerEIDs {
		if e == eid {
			return true
		}
	}
	return false
}

// hasOuter reports whether eid is one of this enclave's outer enclaves.
func (n *NestedInfo) hasOuter(eid isa.EID) bool {
	for _, e := range n.OuterEIDs {
		if e == eid {
			return true
		}
	}
	return false
}

// inELRANGE reports whether [v, v+n) lies inside the enclave's ELRANGE.
func (s *SECS) inELRANGE(v isa.VAddr, n int) bool {
	return v >= s.Base && uint64(v)+uint64(n) <= uint64(s.Base)+s.Size
}

// ContainsVPN reports whether the virtual page lies inside ELRANGE.
func (s *SECS) ContainsVPN(vpn uint64) bool {
	return s.inELRANGE(isa.VAddr(vpn<<isa.PageShift), isa.PageSize)
}

// TCSs returns the enclave's thread control structures.
func (s *SECS) TCSs() []*TCS { return s.tcss }

func (s *SECS) String() string {
	return fmt.Sprintf("enclave(eid=%d elrange=[%#x,%#x) init=%v)",
		s.EID, uint64(s.Base), uint64(s.Base)+s.Size, s.Initialized)
}

// TCS is a Thread Control Structure: the per-thread enclave entry context.
type TCS struct {
	// Enclave is the owning enclave.
	Enclave isa.EID
	// Vaddr is the TCS page's virtual address (its identity for EENTER).
	Vaddr isa.VAddr
	// Entry is the enclave-author-defined entry point. The simulator keeps
	// it symbolic: an index into the enclave image's entry table.
	Entry int
	// Busy is the hardware-maintained state bit: a TCS can host at most one
	// logical processor at a time; EENTER/NEENTER require it idle.
	Busy bool

	// ret is the reserved stack frame holding the suspended outer-enclave
	// context while this TCS's enclave runs as a nested inner (the paper:
	// NEENTER "saves the current context ... to a reserved stack frame of
	// the entering inner enclave"). Empty for top-level entries.
	ret enclaveFrame
	// ssa is the state-save area: the context an asynchronous enclave exit
	// saved, consumed by ERESUME. Its tcs is this TCS. Suspended nested
	// frames need no saving here: they already live in the ret chain.
	ssa enclaveFrame

	page int // EPC page index backing the TCS
}

// Registers models the architectural register file that transitions must
// save, restore and scrub. Synthetic enclave code stores live secrets here
// in tests that verify NEEXIT's scrubbing.
type Registers struct {
	GPR   [16]uint64
	Flags uint64
}

// Scrub zeroes the register file, as NEEXIT and AEX do so that "all the
// information of the inner enclave" is cleared (paper §IV-B).
func (r *Registers) Scrub() { *r = Registers{} }

// IsZero reports whether every register is zero.
func (r *Registers) IsZero() bool { return *r == Registers{} }

// enclaveFrame records a suspended enclave context: the outer enclave's
// state while an inner enclave runs (TCS.ret), or an interrupted thread's
// (TCS.ssa). Both live in the TCS, as SGX keeps them in TCS-owned pages, so
// no entry or exit allocates one. A nil secs means the frame is empty.
type enclaveFrame struct {
	secs *SECS
	tcs  *TCS
	regs Registers
}

// empty reports whether the frame holds no suspended context.
func (f *enclaveFrame) empty() bool { return f.secs == nil }
