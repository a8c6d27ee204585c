// Package epc manages the Enclave Page Cache and its shadow metadata, the
// Enclave Page Cache Map (EPCM).
//
// Each 4 KiB EPC page has an EPCM entry recording — exactly as the paper's
// §II-B requires for the access validator — the owner enclave's identity and
// the single virtual address at which the page may be mapped, plus the page
// type and permissions. The EPCM is hardware-internal state: no software,
// including the kernel, can read or write it directly.
package epc

import (
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
)

// Entry is one EPCM record, 24 bytes: the two words first, then the four
// one-byte fields. The zero value describes a free page.
type Entry struct {
	// Owner is the owning enclave (the enclave whose SECS this is, for
	// PT_SECS pages the enclave the SECS defines).
	Owner isa.EID
	// Vaddr is the one virtual address the page may be mapped at
	// (meaningless for PT_SECS/PT_VA pages, which software never maps).
	Vaddr isa.VAddr
	// Valid is set while the page is in use by an enclave.
	Valid bool
	// Blocked is set by EBLOCK during eviction; blocked pages fail
	// validation so new TLB entries cannot be created for them.
	Blocked bool
	// Type is the architectural page type.
	Type isa.PageType
	// Perms are the enclave-author-specified access permissions.
	Perms isa.Perm
}

// Manager tracks EPC page allocation and the EPCM. Not safe for concurrent
// use; the machine serializes instruction execution.
type Manager struct {
	base    isa.PAddr
	npages  int
	entries []Entry
	free    []int // free page indices, LIFO
	// regs counts the valid regular pages of each owner and nregs all of
	// them. Alloc and Free, the only writers of Valid, Type and Owner,
	// keep both; blocked pages stay counted.
	regs  map[isa.EID]int
	nregs int
}

// The EPC's geometry is architectural (SGX reports it through CPUID leaf
// 0x12): it covers the PRM of the machine's layout, so software that knows
// the layout computes page addresses itself.

// PageAddr returns the physical base address of EPC page i in layout l.
func PageAddr(l phys.Layout, i int) isa.PAddr { return l.PRMBase + isa.PAddr(i)*isa.PageSize }

// NumPagesIn returns the number of EPC pages in layout l.
func NumPagesIn(l phys.Layout) int { return int(l.PRMSize / isa.PageSize) }

// NewManager creates a manager covering the PRM of the given memory.
func NewManager(mem *phys.Memory) *Manager {
	l := mem.Layout()
	n := NumPagesIn(l)
	m := &Manager{base: l.PRMBase, npages: n, entries: make([]Entry, n), free: make([]int, 0, n), regs: make(map[isa.EID]int)}
	for i := n - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	return m
}

// NumPages returns the total number of EPC pages.
func (m *Manager) NumPages() int { return m.npages }

// FreePages returns the number of unallocated EPC pages.
func (m *Manager) FreePages() int { return len(m.free) }

// Base returns the physical base of the EPC.
func (m *Manager) Base() isa.PAddr { return m.base }

// AddrOf returns the physical base address of EPC page i.
func (m *Manager) AddrOf(i int) isa.PAddr {
	return m.base + isa.PAddr(i)*isa.PageSize
}

// IndexOf maps a physical address into an EPC page index.
func (m *Manager) IndexOf(p isa.PAddr) (int, bool) {
	if p < m.base {
		return 0, false
	}
	i := int((p - m.base) >> isa.PageShift)
	if i >= m.npages {
		return 0, false
	}
	return i, true
}

// Entry returns a pointer to the EPCM entry for EPC page i.
func (m *Manager) Entry(i int) *Entry { return &m.entries[i] }

// EntryAt returns the EPCM entry governing physical address p.
func (m *Manager) EntryAt(p isa.PAddr) (*Entry, bool) {
	i, ok := m.IndexOf(p)
	if !ok {
		return nil, false
	}
	return &m.entries[i], true
}

// Alloc claims a free EPC page for the owner, returning its index. It
// corresponds to the EPCM side of EADD/ECREATE: the entry is marked valid
// with the given attributes.
func (m *Manager) Alloc(owner isa.EID, t isa.PageType, vaddr isa.VAddr, perms isa.Perm) (int, error) {
	if len(m.free) == 0 {
		return 0, fmt.Errorf("epc: out of EPC pages")
	}
	i := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.entries[i] = Entry{Valid: true, Type: t, Owner: owner, Vaddr: vaddr, Perms: perms}
	if t == isa.PTReg {
		m.regs[owner]++
		m.nregs++
	}
	return i, nil
}

// Free releases EPC page i back to the pool (EREMOVE).
func (m *Manager) Free(i int) error {
	e := &m.entries[i]
	if !e.Valid {
		return fmt.Errorf("epc: double free of page %d", i)
	}
	if e.Type == isa.PTReg {
		if m.regs[e.Owner]--; m.regs[e.Owner] == 0 {
			delete(m.regs, e.Owner)
		}
		m.nregs--
	}
	*e = Entry{}
	m.free = append(m.free, i)
	return nil
}

// PagesOf returns the indices of all valid pages owned by eid.
func (m *Manager) PagesOf(eid isa.EID) []int {
	var out []int
	for i := range m.entries {
		if m.entries[i].Valid && m.entries[i].Owner == eid {
			out = append(out, i)
		}
	}
	return out
}

// EvictionCandidate scans the EPCM from page start over count pages,
// wrapping at the end of the EPC, and returns the first valid, unblocked
// regular page not owned by skip (isa.NoEnclave skips no owner). When no
// regular page outside skip exists it returns at once, without a scan.
func (m *Manager) EvictionCandidate(start, count int, skip isa.EID) (int, bool) {
	if m.nregs == m.regs[skip] {
		return 0, false
	}
	i := start % m.npages
	for ; count > 0; count-- {
		if e := &m.entries[i]; e.Valid && !e.Blocked && e.Type == isa.PTReg && e.Owner != skip {
			return i, true
		}
		if i++; i == m.npages {
			i = 0
		}
	}
	return 0, false
}
