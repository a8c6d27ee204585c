// Package kos simulates the untrusted kernel of the machine: physical frame
// management, process address spaces, the SGX driver (enclave construction
// ioctls, EPC paging), the scheduler binding processes to cores, and an IPC
// service.
//
// Everything in this package is *inside the attacker's power* under the SGX
// threat model. The kernel can rewrite page tables (Process.PageTable)
// directly; every other decision it makes (failing an EPC allocation,
// withholding a shootdown IPI, choosing the blob ELDU reloads and the frame
// it is mapped at, and what the IPC router delivers) is asked of the
// machine's sgx.Hostile platform. The attack reproductions, the chaos
// injector and the adversary engine install theirs with
// Machine.SetHostile, and the hardware model is expected to contain them.
package kos

import (
	"fmt"
	"sync"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
)

// Kernel is the simulated operating system.
type Kernel struct {
	mu sync.Mutex

	m *sgx.Machine
	// freeFrames holds unreserved physical page numbers.
	freeFrames []uint64 //nescheck:guard mu

	Driver *Driver
	IPC    *IPCService
}

// New boots a kernel on the machine: builds the frame allocator over
// non-PRM DRAM and installs the page-fault handler on every core.
func New(m *sgx.Machine) *Kernel {
	k := &Kernel{m: m}
	layout := m.DRAM.Layout()
	for ppn := uint64(0); ppn < layout.DRAMSize>>isa.PageShift; ppn++ {
		pa := isa.PAddr(ppn << isa.PageShift)
		if m.DRAM.PageInPRM(pa) {
			continue
		}
		if ppn == 0 {
			continue // keep the null frame unmapped
		}
		//nescheck:allow atomicsafety constructor fills the free list before k is published; no other goroutine can hold a reference yet
		k.freeFrames = append(k.freeFrames, ppn)
	}
	k.Driver = &Driver{k: k, evicted: make(map[evictKey]*sgx.EvictedPage), procs: make(map[isa.EID]*Process)}
	k.IPC = NewIPCService(k)
	for _, c := range m.Cores() {
		c.PFHandler = k.handleFault
	}
	return k
}

// Machine returns the underlying machine.
func (k *Kernel) Machine() *sgx.Machine { return k.m }

// allocFrame claims a physical frame.
func (k *Kernel) allocFrame() (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.freeFrames) == 0 {
		return 0, fmt.Errorf("kos: out of physical frames")
	}
	ppn := k.freeFrames[len(k.freeFrames)-1]
	k.freeFrames = k.freeFrames[:len(k.freeFrames)-1]
	return ppn, nil
}

// Process is one user address space.
type Process struct {
	k  *Kernel
	mu sync.Mutex

	// pt is the process page table — kernel-owned, untrusted.
	pt *pt.Table
	// nextMmap is the bump pointer for anonymous mappings, placed far from
	// typical ELRANGE bases.
	nextMmap isa.VAddr
	// frames tracks owned unreserved frames for teardown.
	frames []uint64
}

// NewProcess creates an empty address space.
func (k *Kernel) NewProcess() *Process {
	return &Process{k: k, pt: pt.New(), nextMmap: 0x7f00_0000_0000}
}

// PageTable exposes the process's page table. The kernel (and the attack
// code standing in for a malicious kernel) may rewrite it arbitrarily.
func (p *Process) PageTable() *pt.Table { return p.pt }

// Mmap allocates n bytes of zeroed anonymous memory and maps it with the
// given permissions, returning its base virtual address.
func (p *Process) Mmap(n int, perms isa.Perm) (isa.VAddr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("kos: mmap of %d bytes", n)
	}
	npages := (n + isa.PageSize - 1) / isa.PageSize
	p.mu.Lock()
	base := p.nextMmap
	p.nextMmap += isa.VAddr(npages+1) * isa.PageSize // guard page gap
	p.mu.Unlock()
	for i := 0; i < npages; i++ {
		ppn, err := p.k.allocFrame()
		if err != nil {
			return 0, err
		}
		pa := isa.PAddr(ppn << isa.PageShift)
		p.k.m.DRAM.Zero(pa, isa.PageSize)
		p.mu.Lock()
		p.pt.Map(base+isa.VAddr(i)*isa.PageSize, pa, perms)
		p.frames = append(p.frames, ppn)
		p.mu.Unlock()
	}
	return base, nil
}

// MapFixed maps an existing physical page at a chosen virtual address — the
// primitive a malicious kernel uses to alias or remap memory in attacks.
func (p *Process) MapFixed(v isa.VAddr, pa isa.PAddr, perms isa.Perm) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pt.Map(v, pa, perms)
}

// Schedule installs the process on a core: the context switch's CR3 load,
// which the machine refuses while the core executes in enclave mode and
// which flushes the core's TLB.
func (k *Kernel) Schedule(c *sgx.Core, p *Process) error {
	return k.m.LoadCR3(c, p.pt)
}

// handleFault is the kernel page-fault handler: it repairs faults it is
// responsible for (evicted EPC pages) and returns whether to retry.
func (k *Kernel) handleFault(c *sgx.Core, f *isa.Fault) bool {
	return k.Driver.reloadIfEvicted(c, f)
}
