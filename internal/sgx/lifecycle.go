package sgx

import (
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/trace"
)

// This file implements the privileged enclave-building instructions:
// ECREATE, EADD, EEXTEND, EINIT, EREMOVE. The kernel driver (package kos)
// invokes them on behalf of the untrusted loader; every byte they load is
// folded into MRENCLAVE so EINIT and NASSO can detect tampering.

// ECreate allocates a new enclave: an SECS page in the EPC plus the
// machine-private SECS state. ELRANGE is [base, base+size) and immutable.
func (m *Machine) ECreate(base isa.VAddr, size uint64, attributes uint64) (*SECS, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if uint64(base)&isa.PageMask != 0 || size == 0 || size&isa.PageMask != 0 {
		return nil, isa.GP("ECREATE: ELRANGE [%#x,+%#x) not page-aligned", uint64(base), size)
	}
	eid := m.nextEID
	page, err := m.EPC.Alloc(eid, isa.PTSECS, 0, 0)
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
	if !s.InELRANGE(a.Vaddr, isa.PageSize) {
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
	page, err := m.EPC.Alloc(s.EID, a.Type, a.Vaddr, perms)
	if err != nil {
		return 0, isa.GP("EADD: %v", err)
	}
	// Microcode writes the initial content into the EPC page through the
	// cache hierarchy (so it lands encrypted in DRAM on writeback), billed
	// to the enclave under construction.
	content := make([]byte, isa.PageSize)
	copy(content, a.Content)
	pa := m.EPC.AddrOf(page)
	if err := m.LLC.Write(pa, content, trace.Payer{EID: uint64(s.EID), Core: trace.NoCore}); err != nil {
		_ = m.EPC.Free(page)
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
	if !s.InELRANGE(vaddr, isa.PageSize) {
		return 0, isa.GP("EAUG: vaddr %#x outside ELRANGE", uint64(vaddr))
	}
	// The virtual page must not already be backed.
	for _, i := range m.EPC.PagesOf(s.EID) {
		if e := m.EPC.Entry(i); e.Type != isa.PTSECS && e.Vaddr == vaddr {
			return 0, isa.GP("EAUG: vaddr %#x already backed", uint64(vaddr))
		}
	}
	page, err := m.EPC.Alloc(s.EID, isa.PTReg, vaddr, perms)
	if err != nil {
		return 0, isa.GP("EAUG: %v", err)
	}
	// Dynamic growth bills to the enclave the page is augmented into.
	if err := m.LLC.Write(m.EPC.AddrOf(page), make([]byte, isa.PageSize), trace.Payer{EID: uint64(s.EID), Core: trace.NoCore}); err != nil {
		_ = m.EPC.Free(page)
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

// ERemove frees one EPC page. SECS pages are only removable when no other
// page of the enclave remains; removing the SECS destroys the enclave.
func (m *Machine) ERemove(page int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.EPC.Entry(page)
	if !ent.Valid {
		return isa.GP("EREMOVE: page %d not valid", page)
	}
	if ent.Type == isa.PTSECS {
		owner := ent.Owner
		for _, i := range m.EPC.PagesOf(owner) {
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
	m.LLC.InvalidateRange(m.EPC.AddrOf(page), isa.PageSize)
	m.MEE.DropPage(m.EPC.AddrOf(page))
	m.DRAM.Zero(m.EPC.AddrOf(page), isa.PageSize)
	return m.EPC.Free(page)
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

// DestroyEnclave removes every page of the enclave, SECS last.
func (m *Machine) DestroyEnclave(s *SECS) error {
	m.mu.Lock()
	pages := m.EPC.PagesOf(s.EID)
	m.mu.Unlock()
	var secsPage = -1
	for _, p := range pages {
		m.mu.Lock()
		typ := m.EPC.Entry(p).Type
		m.mu.Unlock()
		if typ == isa.PTSECS {
			secsPage = p
			continue
		}
		if err := m.ERemove(p); err != nil {
			return err
		}
	}
	if secsPage >= 0 {
		return m.ERemove(secsPage)
	}
	return nil
}

// EPCFootprint returns the number of valid EPC pages owned by the enclave
// (code+data+TCS+SECS), the quantity Figure 10 tracks as memory footprint.
func (m *Machine) EPCFootprint(eid isa.EID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.EPC.PagesOf(eid))
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
