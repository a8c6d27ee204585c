// Package talloc is the trusted in-enclave heap allocator: a first-fit
// free-list allocator over a virtual address range inside an enclave's
// ELRANGE.
//
// Its purpose in this repository is fidelity of the confinement case study:
// the Heartbleed reproduction needs a heap where a freed buffer's contents
// remain adjacent to other allocations in *simulated enclave memory*, so an
// unchecked length in the heartbeat handler really over-reads neighbouring
// allocations — or faults on the protection boundary, when the victim data
// lives in an inner enclave.
//
// The allocator's bookkeeping lives natively (the metadata of a real
// allocator would live in enclave memory too; keeping it native simplifies
// the simulator without changing what an over-read can observe: payload
// bytes are written only through the enclave memory path).
package talloc

import (
	"fmt"
	"sort"

	"nestedenclave/internal/isa"
)

// Heap manages [base, base+size) of enclave virtual memory.
type Heap struct {
	base isa.VAddr
	size uint64

	// free holds non-overlapping free extents sorted by address.
	free []extent
	// live maps allocation base -> length.
	live map[isa.VAddr]uint64
}

type extent struct {
	addr isa.VAddr
	len  uint64
}

// New creates a heap over the given range.
func New(base isa.VAddr, size uint64) *Heap {
	return &Heap{
		base: base,
		size: size,
		free: []extent{{addr: base, len: size}},
		live: make(map[isa.VAddr]uint64),
	}
}

// Base returns the heap's base address.
func (h *Heap) Base() isa.VAddr { return h.base }

// Size returns the heap's total size.
func (h *Heap) Size() uint64 { return h.size }

// Alloc claims n bytes (8-byte aligned), first-fit.
func (h *Heap) Alloc(n int) (isa.VAddr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("talloc: alloc of %d bytes", n)
	}
	need := (uint64(n) + 7) &^ 7
	for i := range h.free {
		if h.free[i].len >= need {
			addr := h.free[i].addr
			h.free[i].addr += isa.VAddr(need)
			h.free[i].len -= need
			if h.free[i].len == 0 {
				h.free = append(h.free[:i], h.free[i+1:]...)
			}
			h.live[addr] = need
			return addr, nil
		}
	}
	return 0, fmt.Errorf("talloc: out of heap (%d bytes requested)", n)
}

// Free releases an allocation. The memory contents are NOT cleared — the
// realistic behaviour that made Heartbleed leak stale secrets.
func (h *Heap) Free(addr isa.VAddr) error {
	n, ok := h.live[addr]
	if !ok {
		return fmt.Errorf("talloc: free of unallocated address %#x", uint64(addr))
	}
	delete(h.live, addr)
	h.insertFree(extent{addr: addr, len: n})
	return nil
}

// insertFree adds e, which overlaps no free extent, to the sorted free
// list, merging it with the neighbours it touches.
func (h *Heap) insertFree(e extent) {
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].addr > e.addr })
	joinPrev := i > 0 && h.free[i-1].addr+isa.VAddr(h.free[i-1].len) == e.addr
	joinNext := i < len(h.free) && e.addr+isa.VAddr(e.len) == h.free[i].addr
	switch {
	case joinPrev && joinNext:
		h.free[i-1].len += e.len + h.free[i].len
		h.free = append(h.free[:i], h.free[i+1:]...)
	case joinPrev:
		h.free[i-1].len += e.len
	case joinNext:
		h.free[i].addr = e.addr
		h.free[i].len += e.len
	default:
		h.free = append(h.free, extent{})
		copy(h.free[i+1:], h.free[i:])
		h.free[i] = e
	}
}

// Extend donates a new address range to the heap (dynamic enclave memory:
// pages augmented after initialization). The heap may become discontiguous;
// Size() then reports total capacity rather than a span. The range must not
// overlap any existing free extent or live allocation.
func (h *Heap) Extend(addr isa.VAddr, size uint64) error {
	if size == 0 {
		return fmt.Errorf("talloc: empty extension")
	}
	overlaps := func(a isa.VAddr, n uint64) bool {
		return uint64(addr) < uint64(a)+n && uint64(a) < uint64(addr)+size
	}
	for _, e := range h.free {
		if overlaps(e.addr, e.len) {
			return fmt.Errorf("talloc: extension [%#x,+%#x) overlaps free extent", uint64(addr), size)
		}
	}
	for a, n := range h.live {
		if overlaps(a, n) {
			return fmt.Errorf("talloc: extension [%#x,+%#x) overlaps live allocation", uint64(addr), size)
		}
	}
	h.size += size
	h.insertFree(extent{addr: addr, len: size})
	return nil
}

// SizeOf returns the size of a live allocation.
func (h *Heap) SizeOf(addr isa.VAddr) (uint64, bool) {
	n, ok := h.live[addr]
	return n, ok
}

// LiveBytes reports total allocated bytes (tests).
func (h *Heap) LiveBytes() uint64 {
	var total uint64
	for _, n := range h.live {
		total += n
	}
	return total
}

// FreeBytes reports total free bytes (tests).
func (h *Heap) FreeBytes() uint64 {
	var total uint64
	for _, e := range h.free {
		total += e.len
	}
	return total
}
