package kos

import (
	"errors"
	"fmt"
	"sync"

	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// Driver is the SGX kernel driver: the privileged side of enclave
// construction and EPC paging, the equivalent of the Linux SGX driver the
// paper modified.
type Driver struct {
	k *Kernel

	// pager is the driver's one lock. It serializes every EPC allocation
	// (ECREATE, EADD, EAUG, ELDU) with the paging protocol: an eviction
	// (EBLOCK through the stored blob), a fault-path reload (blob lookup
	// through the new PTE) and an enclave's teardown never interleave, and
	// no allocation can lose the frame the paging daemon freed for it.
	// Without it a walk could reach a frame EWB just freed through a
	// still-present PTE, and a reload could map a frame that a concurrent
	// eviction had already taken back.
	pager sync.Mutex

	// evicted stores sealed EPC pages swapped to "disk" (kernel memory),
	// keyed by the address space and page base a fault will name.
	evicted map[evictKey]*sgx.EvictedPage //nescheck:guard pager
	// spare holds spent blobs for EWB to seal into, the kernel-named
	// destination of SGX's EWB. A blob enters it only when it leaves
	// evicted as spent: its page reloaded from it, or its enclave was torn
	// down. So no blob in spare is still stored, and none is one an
	// sgx.Hostile substituted at a reload.
	spare []*sgx.EvictedPage //nescheck:guard pager
	// shoot is the ETRACK shootdown set of the eviction in progress.
	shoot []*sgx.Core //nescheck:guard pager

	// procs remembers which process each enclave is mapped in, so the
	// paging daemon can fix page tables when it evicts a victim.
	procs map[isa.EID]*Process //nescheck:guard pager
	// victimCursor rotates victim selection across the EPC.
	victimCursor int //nescheck:guard pager

	// detect records the most recent typed freshness rejection returned by
	// ELDU on the reload path. The architectural interface can only deliver
	// #PF to the faulting core, so the driver keeps the hardware's detection
	// evidence here for the audit harness (DetectionEvidence).
	detect error //nescheck:guard pager
}

// evictKey names an evicted page the way the faulting core sees it: the
// page table it was mapped in and its page base.
type evictKey struct {
	as    *pt.Table
	vaddr isa.VAddr
}

// CreateEnclave performs ECREATE on behalf of the loader, letting the paging
// daemon make room when the EPC is full.
func (d *Driver) CreateEnclave(base isa.VAddr, size uint64, attrs uint64) (*sgx.SECS, error) {
	d.pager.Lock()
	defer d.pager.Unlock()
	return withRoom(d, isa.NoEnclave, trace.NoCore, func() (*sgx.SECS, error) {
		return d.k.m.ECreate(base, size, attrs)
	})
}

// AddPage performs EADD and maps the new EPC page into the process address
// space at its declared virtual address. TCS pages are mapped read-only for
// the page walk; the EPCM makes them inaccessible to software regardless.
func (d *Driver) AddPage(p *Process, s *sgx.SECS, a sgx.AddPageArgs) error {
	ptePerms := a.Perms
	if a.Type == isa.PTTCS {
		ptePerms = isa.PermR
	}
	return d.addPage(p, s, a.Vaddr, ptePerms, func() (int, error) { return d.k.m.EAdd(s, a) })
}

// AugPage adds a zeroed page to an initialized enclave (SGX2 EAUG) and maps
// it into the process.
func (d *Driver) AugPage(p *Process, s *sgx.SECS, vaddr isa.VAddr, perms isa.Perm) error {
	return d.addPage(p, s, vaddr, perms, func() (int, error) { return d.k.m.EAug(s, vaddr, perms) })
}

// addPage runs one EADD/EAUG for s under EPC pressure and maps the new page
// into p at vaddr with the given PTE permissions. d.pager is held to the new
// PTE, so no eviction can take the page back before it is mapped.
func (d *Driver) addPage(p *Process, s *sgx.SECS, vaddr isa.VAddr, perms isa.Perm, alloc func() (int, error)) error {
	d.pager.Lock()
	defer d.pager.Unlock()
	d.procs[s.EID] = p
	// A platform-failed allocation fails the ioctl outright — no
	// driver-internal retry — so recovery is observable at the SDK's retry
	// layer rather than silently self-healing here. ECREATE is not a
	// decision point.
	if err := d.k.m.Hostile().AllocEPC(); err != nil {
		return fmt.Errorf("kos: EPC allocation failed: %w", err)
	}
	page, err := withRoom(d, s.EID, trace.NoCore, alloc)
	if err != nil {
		return err
	}
	p.MapFixed(vaddr, epc.PageAddr(d.k.m.DRAM.Layout(), page), perms)
	return nil
}

// withRoom issues one EPC-allocating instruction. When the EPC is full, the
// paging daemon first evicts a victim on core (trace.NoCore outside a
// fault), preferring enclaves other than avoid (isa.NoEnclave for
// ECREATE), as the SGX driver hands these instructions a free page. The
// caller holds d.pager, so no other allocation can take the freed frame.
// When no victim can be evicted the instruction still runs, and its #GP
// comes back wrapped with the daemon's failure.
func withRoom[T any](d *Driver, avoid isa.EID, core int, alloc func() (T, error)) (T, error) {
	if d.k.m.FreeEPCPages() > 0 {
		return alloc()
	}
	derr := d.makeRoom(avoid, core)
	v, err := alloc()
	if err != nil && derr != nil {
		return v, fmt.Errorf("kos: EPC exhausted and paging daemon failed: %v (alloc: %w)", derr, err)
	}
	return v, err
}

// errNoVictim is the paging daemon's failure to find a page it could evict.
var errNoVictim = errors.New("no evictable EPC page found")

// makeRoom is the paging daemon: it picks a resident regular page (rotating
// across the EPC, skipping the enclave currently being served when
// possible) and evicts it through the full architectural protocol on the
// given core (trace.NoCore outside a fault). The caller holds d.pager.
func (d *Driver) makeRoom(avoid isa.EID, core int) error {
	m := d.k.m
	n := epc.NumPagesIn(m.DRAM.Layout())
	tryEvict := func(skip isa.EID) error {
		start := d.victimCursor
		for off := 0; off < n; {
			idx, ent, ok := m.EvictionCandidate((start+off)%n, n-off, skip)
			if !ok {
				break
			}
			off = (idx-start+n)%n + 1 // a refused candidate resumes the scan past it
			owner, ok := m.Enclave(ent.Owner)
			if !ok {
				continue
			}
			proc := d.procs[ent.Owner]
			if proc == nil {
				continue
			}
			if err := d.evictPage(proc, owner, ent.Vaddr, core); err != nil {
				continue // e.g. live translations on a busy enclave; try another victim
			}
			d.victimCursor = (idx + 1) % n
			return nil
		}
		return errNoVictim
	}
	if err := tryEvict(avoid); err == nil {
		return nil
	}
	return tryEvict(isa.NoEnclave)
}

// InitEnclave performs EINIT.
func (d *Driver) InitEnclave(s *sgx.SECS, cert *measure.SigStruct) error {
	return d.k.m.EInit(s, cert)
}

// DestroyEnclave unmaps the enclave and EREMOVEs every page of it, its SECS
// last.
func (d *Driver) DestroyEnclave(p *Process, s *sgx.SECS) error {
	d.pager.Lock()
	defer d.pager.Unlock()
	for key, blob := range d.evicted {
		if blob.Owner == s.EID {
			delete(d.evicted, key)
			d.spare = append(d.spare, blob)
		}
	}
	if p != nil {
		for v := s.Base; v < s.Base+isa.VAddr(s.Size); v += isa.PageSize {
			p.pt.Unmap(v)
		}
	}
	for _, page := range d.k.m.EPCPagesOf(s.EID) {
		if err := d.k.m.ERemove(page); err != nil {
			return err
		}
	}
	return nil
}

// EvictPage swaps one regular EPC page of the enclave out to kernel storage
// following the architectural protocol: EBLOCK, ETRACK, shootdown IPIs to
// the cores the Tracker reports, then EWB. The process mapping is marked
// not-present so the next access faults into reloadIfEvicted.
func (d *Driver) EvictPage(p *Process, s *sgx.SECS, vaddr isa.VAddr) error {
	d.pager.Lock()
	defer d.pager.Unlock()
	return d.evictPage(p, s, vaddr, trace.NoCore)
}

// evictPage is EvictPage with EWB run on the given core. The caller holds
// d.pager.
func (d *Driver) evictPage(p *Process, s *sgx.SECS, vaddr isa.VAddr, core int) error {
	m := d.k.m
	pageIdx, found := m.FindRegPage(s, vaddr)
	if !found {
		return fmt.Errorf("kos: enclave %d has no regular EPC page at %#x", s.EID, uint64(vaddr))
	}
	if err := m.EBlock(pageIdx); err != nil {
		return err
	}
	h := m.Hostile()
	d.shoot = m.ETrack(s, d.shoot[:0])
	for _, c := range d.shoot {
		if h.DeliverIPI(s.EID, c.ID) {
			m.ShootdownFor(c, s.EID)
		}
	}
	// The PTE goes not-present before EWB frees the frame, so a walk in
	// between faults into reloadIfEvicted, which waits on d.pager for the
	// blob, instead of reading the freed frame as the abort page.
	pte, mapped := p.pt.Walk(vaddr)
	p.pt.MarkNotPresent(vaddr)
	dst := d.takeSpare()
	blob, err := m.EWB(pageIdx, core, dst)
	if err != nil {
		if dst != nil {
			d.spare = append(d.spare, dst)
		}
		if mapped && pte.Present {
			p.pt.Map(vaddr, isa.PAddr(pte.PPN<<isa.PageShift), pte.Perms) // the page stays resident
		}
		return err
	}
	d.evicted[evictKey{as: p.pt, vaddr: vaddr.PageBase()}] = blob
	h.Evicted(s.EID, vaddr.PageBase(), blob)
	return nil
}

// reloadIfEvicted is the page-fault path: if the faulting address names a
// page evicted from the faulting core's address space (an EPC page of the
// faulting enclave or, with nesting, of one of its outer enclaves), reload
// it with ELDU and fix the mapping. d.pager is held to the new PTE, so no
// eviction can take the frame back between ELDU and the remap.
func (d *Driver) reloadIfEvicted(c *sgx.Core, f *isa.Fault) bool {
	d.pager.Lock()
	defer d.pager.Unlock()
	m := d.k.m
	vpage := f.Addr.PageBase()
	key := evictKey{as: c.AddressSpace(), vaddr: vpage}
	blob, ok := d.evicted[key]
	if !ok {
		return false
	}

	// A lying kernel may hand ELDU something other than the page's genuine
	// blob. The genuine one stays in the store until ELDU loads it, so a
	// later honest retry can still cure the fault.
	h := m.Hostile()
	load := h.Reload(blob.Owner, vpage, blob)

	// Under EPC pressure the paging daemon makes room first. All of it runs
	// on the faulting core, so its EWB/ELD spans parent under the faulting
	// call.
	page, err := withRoom(d, load.Owner, c.ID, func() (int, error) { return m.ELDU(load, c.ID) })
	if err != nil {
		if errors.Is(err, sgx.ErrBlobReplay) {
			d.detect = err
		}
		return false
	}
	// A substitute the hardware accepted (a fresh, authentic blob of some
	// OTHER page) is in the EPC now, but the victim's data is still only in
	// its genuine blob, which stays stored. The genuine blob, once loaded,
	// is spent, and the next eviction seals into it.
	owner, perms := blob.Owner, blob.Perms
	if load == blob {
		delete(d.evicted, key)
		d.spare = append(d.spare, blob)
	}
	// Re-establish the mapping in the address space the page was evicted
	// from, the faulting core's. Remap is the last lie: the PTE pointing
	// somewhere other than the page ELDU just loaded.
	key.as.Map(vpage, h.Remap(owner, vpage, epc.PageAddr(m.DRAM.Layout(), page)), perms)
	return true
}

// takeSpare returns a spent blob for EWB to seal into, or nil (EWB then
// allocates one). The caller holds d.pager.
func (d *Driver) takeSpare() *sgx.EvictedPage {
	n := len(d.spare)
	if n == 0 {
		return nil
	}
	b := d.spare[n-1]
	d.spare[n-1] = nil
	d.spare = d.spare[:n-1]
	return b
}

// DetectionEvidence returns the most recent typed blob-freshness rejection
// the reload path recorded (nil when none): the audit harness's window into
// detections that the architectural fault interface flattens into #PF.
func (d *Driver) DetectionEvidence() error {
	d.pager.Lock()
	defer d.pager.Unlock()
	return d.detect
}

// EvictedCount reports how many pages are currently swapped out (tests).
func (d *Driver) EvictedCount() int {
	d.pager.Lock()
	defer d.pager.Unlock()
	return len(d.evicted)
}
