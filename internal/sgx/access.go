package sgx

import (
	"nestedenclave/internal/isa"
	"nestedenclave/internal/trace"
)

// This file implements the core's data-access path: TLB lookup, TLB-miss
// handling (page walk + access validation), and the physical access through
// the cache/MEE hierarchy.

const maxFaultRetries = 4

// translateLocked resolves v for the given access kind. It returns either a
// physical address, abort=true (abort-page semantics), or a fault.
// Caller holds at least the read side of m.mu: the whole miss-handling
// sequence only reads machine-global structures (the page table, under its
// own read lock; the EPCM; SECS association lists) and touches per-core
// state (TLB) owned by the calling goroutine, so concurrent translations on
// different cores proceed in parallel while mutating instructions hold the
// write lock.
func (c *Core) translateLocked(v isa.VAddr, op isa.Access) (pa isa.PAddr, abort bool, err error) {
	if e, ok := c.tlb.Lookup(v); ok && e.Perms.Allows(op) {
		return isa.PAddr(e.PPN<<isa.PageShift | v.Offset()), false, nil
	}
	// TLB miss: walk the (untrusted) page table, then validate. The whole
	// miss-handling sequence is one walk op, faulting and aborting walks
	// included; the verdict reclassifies it as nested when the Figure-6
	// outer-enclave branch approved it.
	rec := c.m.Rec
	eid := c.billEID()
	walk := rec.BeginOp(trace.OpPageWalk, c.ID, eid, "")
	defer walk.End()
	rec.ChargeToDetail(eid, c.ID, trace.EvPageWalk, trace.CostPageWalk, v.VPN())
	if c.cr3 == nil {
		return 0, false, isa.PF(v, op, "no address space installed")
	}
	pte, ok := c.cr3.Walk(v)
	if !ok {
		return 0, false, isa.PF(v, op, "unmapped")
	}
	if !pte.Present {
		c.pf = isa.Fault{Class: isa.FaultPF, Addr: v, Op: op, Reason: "not present"}
		return 0, false, &c.pf
	}
	// The kernel owns the page table: a frame past the end of DRAM must be
	// refused here, before the cache hierarchy dereferences it.
	if pte.PPN >= c.m.DRAM.Size()>>isa.PageShift {
		return 0, false, isa.PF(v, op, "frame %#x outside DRAM", pte.PPN)
	}
	entry, verdict := c.m.Validator.Validate(c, v, pte, op)
	switch verdict.Path {
	case PathAbort:
		return 0, true, nil
	case PathFault:
		switch verdict.Fault.Class {
		case isa.FaultGP:
			rec.ChargeToDetail(eid, c.ID, trace.EvFaultGP, 0, v.VPN())
		case isa.FaultPF:
			rec.ChargeToDetail(eid, c.ID, trace.EvFaultPF, 0, v.VPN())
		}
		return 0, false, verdict.Fault
	case PathOuter:
		walk.Op = trace.OpNestedWalk
	}
	c.tlb.Insert(entry)
	return isa.PAddr(entry.PPN<<isa.PageShift | v.Offset()), false, nil
}

// chunkEnd returns the end of the page-bounded chunk starting at v covering
// at most n bytes.
func chunkLen(v isa.VAddr, n int) int {
	inPage := isa.PageSize - int(v.Offset())
	if n < inPage {
		return n
	}
	return inPage
}

// handleFault gives the kernel's page-fault handler a chance to repair the
// mapping (e.g. reload an evicted EPC page) and retry. A fault taken in
// enclave mode costs an AEX + ERESUME round trip, which is charged here.
func (c *Core) handleFault(err error) bool {
	f, ok := err.(*isa.Fault)
	if !ok || f.Class != isa.FaultPF || c.PFHandler == nil {
		return false
	}
	if c.inEnclave {
		c.m.Rec.ChargeTo(c.billEID(), c.ID, trace.EvAEX, trace.CostAEX)
	}
	return c.PFHandler(c, f)
}

// repairFaults runs step, one translate-and-access of a chunk, and hands a
// #PF it returns to the kernel's handler, running step again after each
// repair, at most maxFaultRetries times. A memory-system error ends it at
// once. A demand fault that escapes to the caller leaves as a heap copy of
// the core's record, which the core's next fault overwrites.
func (c *Core) repairFaults(step func() (fault, err error)) error {
	for attempt := 0; ; attempt++ {
		fault, err := step()
		if err != nil {
			return err // MEE integrity machine check
		}
		if fault == nil {
			return nil
		}
		if attempt >= maxFaultRetries || !c.handleFault(fault) {
			if fault == error(&c.pf) {
				f := c.pf
				return &f
			}
			return fault
		}
	}
}

// ReadInto reads len(dst) bytes at virtual address v into dst through the
// full translation + protection path. Aborted regions read as 0xFF.
func (c *Core) ReadInto(v isa.VAddr, dst []byte) error {
	for off := 0; off < len(dst); {
		cur := v + isa.VAddr(off)
		chunk := dst[off : off+chunkLen(cur, len(dst)-off)]
		if err := c.m.hostile.Preempt(c); err != nil {
			return err
		}
		if err := c.repairFaults(func() (fault, err error) { return c.readChunk(cur, chunk) }); err != nil {
			return err
		}
		off += len(chunk)
	}
	return nil
}

// The three helpers below run one translate-and-access step under the
// machine read lock. The deferred unlock releases it even when the cache
// hierarchy panics, so a contained enclave crash can still take the write
// lock to evacuate the core. A translation fault comes back as fault (the
// caller may let the kernel repair it and retry); a memory-system error as
// err.

// readChunk reads one page-bounded chunk at v into dst.
func (c *Core) readChunk(v isa.VAddr, dst []byte) (fault, err error) {
	c.m.mu.RLock()
	defer c.m.mu.RUnlock()
	pa, abort, fault := c.translateLocked(v, isa.Read)
	if fault != nil {
		return fault, nil
	}
	if abort {
		for i := range dst {
			dst[i] = 0xFF
		}
		return nil, nil
	}
	return nil, c.m.llc.ReadInto(pa, dst, c.payer())
}

// writeChunk writes one page-bounded chunk b at v.
func (c *Core) writeChunk(v isa.VAddr, b []byte) (fault, err error) {
	c.m.mu.RLock()
	defer c.m.mu.RUnlock()
	pa, abort, fault := c.translateLocked(v, isa.Write)
	if fault != nil || abort {
		return fault, nil
	}
	return nil, c.m.llc.Write(pa, b, c.payer())
}

// fetchChunk translates v for execution.
func (c *Core) fetchChunk(v isa.VAddr) (abort bool, fault error) {
	c.m.mu.RLock()
	defer c.m.mu.RUnlock()
	_, abort, fault = c.translateLocked(v, isa.Execute)
	return abort, fault
}

// Read returns n bytes at virtual address v.
func (c *Core) Read(v isa.VAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := c.ReadInto(v, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Write stores b at virtual address v through the full protection path.
// Writes to aborted regions are silently dropped.
func (c *Core) Write(v isa.VAddr, b []byte) error {
	for off := 0; off < len(b); {
		cur := v + isa.VAddr(off)
		chunk := b[off : off+chunkLen(cur, len(b)-off)]
		if err := c.m.hostile.Preempt(c); err != nil {
			return err
		}
		if err := c.repairFaults(func() (fault, err error) { return c.writeChunk(cur, chunk) }); err != nil {
			return err
		}
		off += len(chunk)
	}
	return nil
}

// Fetch models an instruction fetch at v: a 16-byte read requiring execute
// permission. Enclave entry points and the NX-on-unsecure-memory rule are
// exercised through it.
func (c *Core) Fetch(v isa.VAddr) error {
	if err := c.m.hostile.Preempt(c); err != nil {
		return err
	}
	var abort bool
	if err := c.repairFaults(func() (fault, err error) {
		abort, fault = c.fetchChunk(v)
		return fault, nil
	}); err != nil {
		return err
	}
	if abort {
		return isa.PF(v, isa.Execute, "fetch from abort page")
	}
	return nil
}

// ReadU64 reads a little-endian uint64 at v.
func (c *Core) ReadU64(v isa.VAddr) (uint64, error) {
	var b [8]byte
	if err := c.ReadInto(v, b[:]); err != nil {
		return 0, err
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// WriteU64 stores a little-endian uint64 at v.
func (c *Core) WriteU64(v isa.VAddr, x uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	return c.Write(v, b[:])
}
