// Package pt models the OS-controlled page tables of a process.
//
// Crucially, the page table is *untrusted*: SGX's threat model lets the
// kernel write arbitrary translations, remap enclave pages, alias two
// virtual pages to one frame, or mark pages non-present at will. The access
// validator (package sgx) re-checks every translation against the EPCM
// during TLB-miss handling precisely because nothing here can be trusted.
// The adversarial kernel in package kos manipulates these tables directly in
// the attack reproductions.
package pt

import (
	"sync"

	"nestedenclave/internal/isa"
)

// PTE is a page table entry.
type PTE struct {
	PPN     uint64
	Perms   isa.Perm
	Present bool
}

// Table is a single-level map-backed page table for one address space.
// Walks happen on every TLB miss from any core while the kernel remaps or
// evicts pages from another: readers take the read lock, so walks on
// different cores run in parallel, and the rare writers — mmap/munmap/
// eviction — edit one entry under the write lock. Every reader reads one
// entry whole (a page-table walk reads one PTE on real hardware, too). mu is
// a leaf lock: nothing is acquired under it.
type Table struct {
	mu      sync.RWMutex
	entries map[uint64]PTE //nescheck:guard mu
}

// New creates an empty page table.
func New() *Table {
	return &Table{entries: map[uint64]PTE{}}
}

// Map installs a translation from the virtual page containing v to the
// physical page containing p with the given permissions.
func (t *Table) Map(v isa.VAddr, p isa.PAddr, perms isa.Perm) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[v.VPN()] = PTE{PPN: p.PPN(), Perms: perms, Present: true}
}

// Unmap removes the translation for the virtual page containing v.
func (t *Table) Unmap(v isa.VAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, v.VPN())
}

// MarkNotPresent keeps the entry but clears its present bit (the state the
// kernel sets while an EPC page is evicted).
func (t *Table) MarkNotPresent(v isa.VAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[v.VPN()]; ok {
		e.Present = false
		t.entries[v.VPN()] = e
	}
}

// Protect changes the permissions of an existing mapping.
func (t *Table) Protect(v isa.VAddr, perms isa.Perm) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[v.VPN()]; ok {
		e.Perms = perms
		t.entries[v.VPN()] = e
	}
}

// Walk performs the page-table walk for v. ok is false when no entry exists;
// a present=false entry is returned with ok true so the fault handler can
// distinguish "never mapped" from "paged out".
func (t *Table) Walk(v isa.VAddr) (PTE, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[v.VPN()]
	return e, ok
}

// Lookup returns the present translation for v, if any.
func (t *Table) Lookup(v isa.VAddr) (PTE, bool) {
	e, ok := t.Walk(v)
	if !ok || !e.Present {
		return PTE{}, false
	}
	return e, true
}

// Translate resolves a full virtual address to a physical address using the
// present mapping, preserving the page offset.
func (t *Table) Translate(v isa.VAddr) (isa.PAddr, bool) {
	e, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	return isa.PAddr(e.PPN<<isa.PageShift | v.Offset()), true
}

// Len returns the number of entries (present or not).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// VPNs returns all mapped virtual page numbers (for audits).
func (t *Table) VPNs() []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]uint64, 0, len(t.entries))
	for vpn := range t.entries {
		out = append(out, vpn)
	}
	return out
}
