package sgx

import (
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/trace"
)

// This file implements the privileged enclave-building instructions:
// ECREATE, EADD, EEXTEND, EINIT, NASSO, EREMOVE. The kernel driver (package
// kos) invokes them on behalf of the untrusted loader; every byte they load
// is folded into MRENCLAVE so EINIT and NASSO can detect tampering.

// ECreate allocates a new enclave: an SECS page in the EPC plus the
// machine-private SECS state. ELRANGE is [base, base+size) and immutable.
func (m *Machine) ECreate(base isa.VAddr, size uint64, attributes uint64) (*SECS, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if uint64(base)&isa.PageMask != 0 || size == 0 || size&isa.PageMask != 0 {
		return nil, isa.GP("ECREATE: ELRANGE [%#x,+%#x) not page-aligned", uint64(base), size)
	}
	eid := m.nextEID
	page, err := m.epc.Alloc(eid, isa.PTSECS, 0, 0)
	if err != nil {
		return nil, isa.GP("ECREATE: %v", err)
	}
	m.nextEID++
	s := &SECS{
		EID:          eid,
		Base:         base,
		Size:         size,
		Attributes:   attributes,
		builder:      measure.NewBuilder(),
		secsPage:     page,
		epochEntries: make(map[int]uint64),
	}
	s.builder.ECreate(size, attributes)
	m.secsByEID[eid] = s
	return s, nil
}

// AddPageArgs describes one EADD.
type AddPageArgs struct {
	// Vaddr is the page's virtual address; must lie in ELRANGE.
	Vaddr isa.VAddr
	// Type is PTReg or PTTCS.
	Type isa.PageType
	// Perms are the author-specified access permissions (PTReg only).
	Perms isa.Perm
	// Content is the initial page content (nil means zeroes). Max PageSize.
	Content []byte
	// Entry is the entry-point index for PTTCS pages.
	Entry int
	// Measure controls whether EEXTEND runs over the content (the loader's
	// choice in real SGX; unmeasured pages weaken attestation).
	Measure bool
}

// EAdd adds one page to an uninitialized enclave, returning the EPC page
// index so the kernel can map it.
func (m *Machine) EAdd(s *SECS, a AddPageArgs) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.Initialized {
		return 0, isa.GP("EADD: enclave %d already initialized", s.EID)
	}
	if uint64(a.Vaddr)&isa.PageMask != 0 {
		return 0, isa.GP("EADD: vaddr %#x not page-aligned", uint64(a.Vaddr))
	}
	if !s.inELRANGE(a.Vaddr, isa.PageSize) {
		return 0, isa.GP("EADD: vaddr %#x outside ELRANGE", uint64(a.Vaddr))
	}
	if len(a.Content) > isa.PageSize {
		return 0, isa.GP("EADD: content of %d bytes exceeds a page", len(a.Content))
	}
	var perms isa.Perm
	switch a.Type {
	case isa.PTReg:
		perms = a.Perms
	case isa.PTTCS:
		perms = 0 // TCS pages are never software-accessible
	default:
		return 0, isa.GP("EADD: page type %v not addable", a.Type)
	}
	page, err := m.epc.Alloc(s.EID, a.Type, a.Vaddr, perms)
	if err != nil {
		return 0, isa.GP("EADD: %v", err)
	}
	// Microcode writes the initial content into the EPC page through the
	// cache hierarchy (so it lands encrypted in DRAM on writeback), billed
	// to the enclave under construction.
	content := make([]byte, isa.PageSize)
	copy(content, a.Content)
	pa := m.epc.AddrOf(page)
	if err := m.llc.Write(pa, content, trace.Payer{EID: uint64(s.EID), Core: trace.NoCore}); err != nil {
		_ = m.epc.Free(page)
		return 0, err
	}
	offset := uint64(a.Vaddr - s.Base)
	s.builder.EAdd(offset, a.Type, perms)
	if a.Measure {
		for ch := 0; ch < isa.PageSize; ch += isa.ExtendChunk {
			s.builder.EExtend(offset+uint64(ch), content[ch:ch+isa.ExtendChunk])
		}
	}
	if a.Type == isa.PTTCS {
		s.tcss = append(s.tcss, &TCS{Enclave: s.EID, Vaddr: a.Vaddr, Entry: a.Entry, page: page})
	}
	return page, nil
}

// EAug adds a zeroed regular page to an already-initialized enclave — the
// SGX2 dynamic-memory extension the paper's footnote 1 references ("SGX2
// allows dynamic EPC allocation to an existing enclave"). The page is not
// measured (it is guaranteed zero); the EACCEPT handshake by which real
// SGX2 enclaves acknowledge augmented pages is folded into the SDK's
// GrowHeap, which is the only caller that hands augmented addresses to
// enclave code.
func (m *Machine) EAug(s *SECS, vaddr isa.VAddr, perms isa.Perm) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !s.Initialized {
		return 0, isa.GP("EAUG: enclave %d not initialized (use EADD)", s.EID)
	}
	if uint64(vaddr)&isa.PageMask != 0 {
		return 0, isa.GP("EAUG: vaddr %#x not page-aligned", uint64(vaddr))
	}
	if !s.inELRANGE(vaddr, isa.PageSize) {
		return 0, isa.GP("EAUG: vaddr %#x outside ELRANGE", uint64(vaddr))
	}
	// The virtual page must not already be backed.
	for _, i := range m.epc.PagesOf(s.EID) {
		if e := m.epc.Entry(i); e.Type != isa.PTSECS && e.Vaddr == vaddr {
			return 0, isa.GP("EAUG: vaddr %#x already backed", uint64(vaddr))
		}
	}
	page, err := m.epc.Alloc(s.EID, isa.PTReg, vaddr, perms)
	if err != nil {
		return 0, isa.GP("EAUG: %v", err)
	}
	// Dynamic growth bills to the enclave the page is augmented into.
	if err := m.llc.Write(m.epc.AddrOf(page), make([]byte, isa.PageSize), trace.Payer{EID: uint64(s.EID), Core: trace.NoCore}); err != nil {
		_ = m.epc.Free(page)
		return 0, err
	}
	return page, nil
}

// EInit finalizes the enclave: verifies the author certificate, compares the
// expected measurement with the accumulated one, and freezes MRENCLAVE and
// MRSIGNER. Only initialized enclaves accept EENTER.
func (m *Machine) EInit(s *SECS, cert *measure.SigStruct) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.Initialized {
		return isa.GP("EINIT: enclave %d already initialized", s.EID)
	}
	if cert == nil {
		return isa.GP("EINIT: no SIGSTRUCT")
	}
	if err := cert.Verify(); err != nil {
		return isa.GP("EINIT: %v", err)
	}
	got := s.builder.Finalize()
	if got != cert.EnclaveHash {
		return isa.GP("EINIT: measurement mismatch: built %v, certificate expects %v",
			got, cert.EnclaveHash)
	}
	s.MRENCLAVE = got
	s.MRSIGNER = measure.SignerOf(cert.Signer)
	s.Cert = cert
	s.Initialized = true
	return nil
}

// NASSO is the kernel-privilege instruction that associates an inner/outer
// enclave pair after both are initialized (paper §IV-B, Figure 4).
//
// The instruction reads MRENCLAVE and MRSIGNER from each SECS and validates
// them against the expected values carried in the *other* enclave's signed
// file: the inner enclave's certificate must name the outer's measurement
// and vice versa. Only then are the SECS association fields updated. This is
// the mechanism behind "secure binding of inner and outer enclaves"
// (§VII-B): the kernel can invoke NASSO, but it cannot forge a pairing the
// enclave authors did not sign off on. The machine's nesting model
// (Config.Nesting) bounds the depth and the number of outers.
func (m *Machine) NASSO(inner, outer *SECS) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if inner == nil || outer == nil {
		return isa.GP("NASSO: nil enclave")
	}
	if inner.EID == outer.EID {
		return isa.GP("NASSO: enclave %d cannot nest within itself", inner.EID)
	}
	if !inner.Initialized || !outer.Initialized {
		return isa.GP("NASSO: both enclaves must be initialized (EINIT) first")
	}
	if inner.Nested.hasOuter(outer.EID) {
		return isa.GP("NASSO: enclaves %d and %d already associated", inner.EID, outer.EID)
	}
	if len(inner.Nested.OuterEIDs) > 0 && !m.nesting.AllowMultipleOuters {
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
	for _, o := range m.OuterChain(outer) {
		if o.EID == inner.EID {
			return isa.GP("NASSO: association would create a nesting cycle")
		}
	}

	// Depth limit: the inner's subtree depth stacked on the outer's depth
	// must fit the configured maximum.
	if limit := m.nesting.MaxDepth; limit > 0 && m.depthOf(outer, map[isa.EID]bool{})+m.innerHeight(inner) > limit {
		return isa.GP("NASSO: association exceeds maximum nesting depth %d", limit)
	}

	// ELRANGEs of associated enclaves share one process address space and
	// must not overlap, or the validator's region tests would be ambiguous.
	// (Real deployments guarantee this by construction; the instruction
	// makes it explicit.)
	for _, o := range append(m.OuterChain(outer), outer) {
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
	for _, aff := range append(m.innerClosure(inner), inner) {
		for _, c := range m.cores {
			if cur := c.Current(); cur != nil && cur.EID == aff.EID {
				return isa.GP("NASSO: core %d is executing enclave %d; inner subtree must be quiescent",
					c.ID, aff.EID)
			}
		}
	}

	inner.Nested.OuterEIDs = append(inner.Nested.OuterEIDs, outer.EID)
	outer.Nested.InnerEIDs = append(outer.Nested.InnerEIDs, inner.EID)
	// The association graph changed: invalidate every cached outer closure.
	m.assocEpoch.Add(1)
	return nil
}

// depthOf returns the nesting depth of the enclave: 1 for a top-level
// enclave, 2 for an inner of a top-level outer, etc. With the lattice
// extension it returns the longest path. Caller holds m.mu.
func (m *Machine) depthOf(s *SECS, visiting map[isa.EID]bool) int {
	if visiting[s.EID] {
		return 1 // cycle guard; NASSO prevents cycles anyway
	}
	visiting[s.EID] = true
	defer delete(visiting, s.EID)
	max := 0
	for _, oe := range s.Nested.OuterEIDs {
		if o, ok := m.secsByEID[oe]; ok {
			if d := m.depthOf(o, visiting); d > max {
				max = d
			}
		}
	}
	return max + 1
}

// innerHeight returns the height of the inner-enclave tree rooted at s
// (1 if s has no inners). Caller holds m.mu.
func (m *Machine) innerHeight(s *SECS) int {
	max := 0
	for _, ie := range s.Nested.InnerEIDs {
		if in, ok := m.secsByEID[ie]; ok {
			if h := m.innerHeight(in); h > max {
				max = h
			}
		}
	}
	return max + 1
}

// innerClosure returns the transitive inner enclaves of s (not including s
// itself). Caller holds m.mu.
func (m *Machine) innerClosure(s *SECS) []*SECS {
	var out []*SECS
	seen := map[isa.EID]bool{s.EID: true}
	frontier := []*SECS{s}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, ie := range next.Nested.InnerEIDs {
			if seen[ie] {
				continue
			}
			seen[ie] = true
			in, ok := m.secsByEID[ie]
			if !ok {
				continue
			}
			out = append(out, in)
			frontier = append(frontier, in)
		}
	}
	return out
}

func rangesOverlap(a, b *SECS) bool {
	aEnd := uint64(a.Base) + a.Size
	bEnd := uint64(b.Base) + b.Size
	return uint64(a.Base) < bEnd && uint64(b.Base) < aEnd
}

// ERemove frees one EPC page. A REG or TCS page is refused with #GP, as
// SGX's SGX_ENCLAVE_ACT, while a running thread can still reach it: while
// any TLB maps its frame, or while any core has live context in its owner or
// in a transitive inner of it (coreTouches, the §IV-E tracker's test), whose
// next walk the Figure-6 outer branch would let through. The EPC hands a
// freed frame to the next allocation, so either case would give that thread
// another enclave's page. A SECS page needs no such check: software never
// maps it, and it is removable only after every other page of the enclave,
// each of which passed the check. Removing the SECS destroys the enclave.
func (m *Machine) ERemove(page int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.epc.Entry(page)
	if !ent.Valid {
		return isa.GP("EREMOVE: page %d not valid", page)
	}
	if ent.Type != isa.PTSECS {
		ppn := m.epc.AddrOf(page).PPN()
		for _, c := range m.cores {
			if c.tlb.MapsFrame(ppn) || m.coreTouches(c, ent.Owner) {
				return isa.GP("EREMOVE: core %d can still reach page %d of enclave %d", c.ID, page, ent.Owner)
			}
		}
	} else {
		owner := ent.Owner
		for _, i := range m.epc.PagesOf(owner) {
			if i != page {
				return isa.GP("EREMOVE: enclave %d still owns page %d", owner, i)
			}
		}
		s := m.secsByEID[owner]
		if s != nil {
			// Tear down associations so stale EIDs cannot be revived.
			for _, oe := range s.Nested.OuterEIDs {
				if outer := m.secsByEID[oe]; outer != nil {
					outer.Nested.InnerEIDs = removeEID(outer.Nested.InnerEIDs, owner)
				}
			}
			for _, ie := range s.Nested.InnerEIDs {
				if inner := m.secsByEID[ie]; inner != nil {
					inner.Nested.OuterEIDs = removeEID(inner.Nested.OuterEIDs, owner)
				}
			}
		}
		delete(m.secsByEID, owner)
		m.forgetPaging(owner)
		// The association graph changed (even for a lone enclave, its EID is
		// now dead): invalidate every cached outer-closure.
		m.assocEpoch.Add(1)
		// Removing the SECS clears the poison mark: the identity can be
		// rebuilt from the image by a fresh ECREATE.
		m.pmu.Lock()
		delete(m.poisoned, owner)
		m.pmu.Unlock()
	}
	// Scrub the page: drop cached lines without writeback, mark its MEE
	// lines unwritten, zero the DRAM ciphertext. Order matters — a writeback
	// after DropPage would mark a line of the dead page written again.
	m.llc.InvalidateRange(m.epc.AddrOf(page), isa.PageSize)
	m.mee.DropPage(m.epc.AddrOf(page))
	m.DRAM.Zero(m.epc.AddrOf(page), isa.PageSize)
	return m.epc.Free(page)
}

func removeEID(s []isa.EID, e isa.EID) []isa.EID {
	out := s[:0]
	for _, x := range s {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

// FindTCS resolves a TCS by its virtual address within the enclave.
func (s *SECS) FindTCS(v isa.VAddr) (*TCS, error) {
	for _, t := range s.tcss {
		if t.Vaddr == v {
			return t, nil
		}
	}
	return nil, fmt.Errorf("sgx: no TCS at %#x in enclave %d", uint64(v), s.EID)
}
