// Package phys models the physical memory of the simulated machine: a
// DRAM with a Processor Reserved Memory (PRM) range carved out for the
// Enclave Page Cache. The package knows nothing about enclaves; it only
// answers "is this physical address inside PRM?" and moves bytes.
//
// DRAM contents are what a physical attacker probing the memory bus would
// observe. The MEE (package mee) encrypts PRM-resident lines, so reading PRM
// ranges directly from a Memory returns ciphertext; the processor-side access
// path (package cache + mee) is the only way to observe plaintext.
package phys

import (
	"fmt"

	"nestedenclave/internal/isa"
)

// Layout describes the physical address map of a machine.
type Layout struct {
	// DRAMSize is the total physical memory in bytes. Must be page-aligned.
	DRAMSize uint64
	// PRMBase is the start of the Processor Reserved Memory. Page-aligned.
	PRMBase isa.PAddr
	// PRMSize is the PRM length in bytes. Page-aligned.
	PRMSize uint64
}

// DefaultLayout mirrors a small SGX machine: 256 MiB of DRAM with a
// 128 MiB PRM (the simulator is not bound by real SGX's 93.5 MiB usable EPC,
// but stays in the same order of magnitude).
func DefaultLayout() Layout {
	return Layout{
		DRAMSize: 256 << 20,
		PRMBase:  64 << 20,
		PRMSize:  128 << 20,
	}
}

// Validate checks alignment and containment of the layout.
func (l Layout) Validate() error {
	switch {
	case l.DRAMSize == 0 || l.DRAMSize&isa.PageMask != 0:
		return fmt.Errorf("phys: DRAM size %#x not page-aligned", l.DRAMSize)
	case uint64(l.PRMBase)&isa.PageMask != 0:
		return fmt.Errorf("phys: PRM base %#x not page-aligned", uint64(l.PRMBase))
	case l.PRMSize == 0 || l.PRMSize&isa.PageMask != 0:
		return fmt.Errorf("phys: PRM size %#x not page-aligned", l.PRMSize)
	case uint64(l.PRMBase)+l.PRMSize > l.DRAMSize:
		return fmt.Errorf("phys: PRM [%#x,%#x) exceeds DRAM size %#x",
			uint64(l.PRMBase), uint64(l.PRMBase)+l.PRMSize, l.DRAMSize)
	}
	return nil
}

// Memory is the simulated DRAM device. Its contents are a table of page
// frames, one slot per physical page. A nil slot is a frame that has never
// been written and reads as zeros, so a machine's host memory grows with
// the pages it touches, not with its DRAM size.
//
// The table takes no lock of its own. Only Write and the attacker's
// TamperByte fill a slot, and Write's one caller, the MEE, runs under the
// LLC's mutex, which also covers the writebacks EWB and ELDU cause under
// the machine's write lock. Zero and the reads only load a slot: EWB and
// EREMOVE zero under the machine's write lock, and the kernel's Mmap
// zeroes a frame no one else holds yet.
type Memory struct {
	layout Layout
	frames []*[isa.PageSize]byte
}

// New builds a DRAM with the given layout. No frame is allocated until it
// is first written.
func New(layout Layout) (*Memory, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	return &Memory{layout: layout, frames: make([]*[isa.PageSize]byte, layout.DRAMSize>>isa.PageShift)}, nil
}

// MustNew is New for known-good layouts; it panics on error.
func MustNew(layout Layout) *Memory {
	m, err := New(layout)
	if err != nil {
		panic(err)
	}
	return m
}

// Layout returns the physical address map.
func (m *Memory) Layout() Layout { return m.layout }

// Size returns the DRAM size in bytes.
func (m *Memory) Size() uint64 { return m.layout.DRAMSize }

// InPRM reports whether the physical address lies in the reserved range.
func (m *Memory) InPRM(p isa.PAddr) bool {
	return p >= m.layout.PRMBase && uint64(p) < uint64(m.layout.PRMBase)+m.layout.PRMSize
}

// PageInPRM reports whether the whole page containing p is reserved.
// PRM is page-aligned, so a page is either fully inside or fully outside.
func (m *Memory) PageInPRM(p isa.PAddr) bool { return m.InPRM(p.PageBase()) }

// Contains reports whether [p, p+n) lies inside DRAM.
func (m *Memory) Contains(p isa.PAddr, n int) bool {
	return uint64(p) < m.layout.DRAMSize && uint64(p)+uint64(n) <= m.layout.DRAMSize
}

func (m *Memory) check(p isa.PAddr, n int) {
	if !m.Contains(p, n) {
		panic(fmt.Sprintf("phys: access [%#x,%#x) outside DRAM of %#x bytes",
			uint64(p), uint64(p)+uint64(n), m.layout.DRAMSize))
	}
}

// inFrame returns how many of the n bytes at p lie in p's frame.
func inFrame(p isa.PAddr, n int) int { return min(n, isa.PageSize-int(p.Offset())) }

// frame returns the frame holding p, allocating it on its first write.
func (m *Memory) frame(p isa.PAddr) *[isa.PageSize]byte {
	f := m.frames[p.PPN()]
	if f == nil {
		f = new([isa.PageSize]byte)
		m.frames[p.PPN()] = f
	}
	return f
}

// Read copies n bytes at physical address p into a fresh slice. This is the
// "memory bus" view: PRM contents are returned exactly as stored (ciphertext
// once an MEE is attached to the write path).
func (m *Memory) Read(p isa.PAddr, n int) []byte {
	m.check(p, n)
	out := make([]byte, n)
	m.ReadInto(p, out)
	return out
}

// ReadInto copies len(dst) bytes at physical address p into dst.
func (m *Memory) ReadInto(p isa.PAddr, dst []byte) {
	m.check(p, len(dst))
	for len(dst) > 0 {
		k := inFrame(p, len(dst))
		if f := m.frames[p.PPN()]; f != nil {
			copy(dst[:k], f[p.Offset():])
		} else {
			clear(dst[:k])
		}
		dst = dst[k:]
		p += isa.PAddr(k)
	}
}

// Write stores b at physical address p.
func (m *Memory) Write(p isa.PAddr, b []byte) {
	m.check(p, len(b))
	for len(b) > 0 {
		k := copy(m.frame(p)[p.Offset():], b)
		b = b[k:]
		p += isa.PAddr(k)
	}
}

// Zero clears n bytes at physical address p. A frame that was never written
// is already zero and stays unallocated; a frame that exists is cleared in
// place and kept, since the next write to it would allocate it again.
func (m *Memory) Zero(p isa.PAddr, n int) {
	m.check(p, n)
	for n > 0 {
		k := inFrame(p, n)
		if f := m.frames[p.PPN()]; f != nil {
			clear(f[p.Offset():][:k])
		}
		n -= k
		p += isa.PAddr(k)
	}
}

// Line returns a copy of the 64-byte cacheline containing p.
func (m *Memory) Line(p isa.PAddr) []byte {
	return m.Read(p.LineBase(), isa.LineSize)
}

// TamperByte flips bits of the byte at p directly in DRAM, modelling a
// physical attacker with bus access. It bypasses every processor-side
// protection; the MEE integrity tree is expected to detect the change on the
// next protected read.
func (m *Memory) TamperByte(p isa.PAddr, xor byte) {
	m.check(p, 1)
	m.frame(p)[p.Offset()] ^= xor
}
