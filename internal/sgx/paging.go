package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/trace"
)

// This file implements EPC page eviction: EBLOCK → ETRACK (+ shootdowns) →
// EWB, and reload via ELDU. The paper's §IV-E extension matters here: when
// an *outer* enclave's page is evicted, translations for it may live in the
// TLBs of cores running *inner* enclaves, so the thread-tracking mechanism
// must include them — that is exactly what Machine.Tracker abstracts, and
// EWB independently audits every TLB so a broken tracker is caught as an
// error rather than a silent security hole.

// EvictedPage is the encrypted blob EWB hands to the kernel for storage in
// untrusted memory. Confidentiality, integrity and freshness are protected:
// the content is sealed under a paging key with a one-time version slot and a
// per-(owner, vaddr) monotonic version counter, so the kernel can neither
// read, modify, nor replay it — not even by presenting a stale blob of the
// same page from an earlier eviction round.
type EvictedPage struct {
	Owner   isa.EID
	Vaddr   isa.VAddr
	Type    isa.PageType
	Perms   isa.Perm
	Slot    uint64 // version-array slot id (one-time, anti-replay)
	Version uint64 // monotonic per-(owner, vaddr) eviction counter, bound into the AAD
	Cipher  []byte // AES-GCM(page content), nonce bound to Slot
}

// blobKey identifies the version-counter lane of an evicted page: one
// monotonic counter per (owner enclave, page base) pair.
type blobKey struct {
	owner isa.EID
	vaddr isa.VAddr
}

// ErrBlobReplay is the sentinel all blob-freshness failures match via
// errors.Is: the kernel presented a sealed EWB blob that is not the most
// recent eviction of its page (a replay), or one whose one-time slot was
// already consumed (a double load). It is a *detection* — the malicious input
// was rejected before any stale data entered the EPC — and it is permanent:
// retrying the same blob can never succeed.
var ErrBlobReplay = errors.New("sgx: evicted-page blob replay detected")

// BlobReplayError carries the freshness evidence for an ELDU rejection.
type BlobReplayError struct {
	Owner    isa.EID
	Vaddr    isa.VAddr
	Have     uint64 // version presented by the kernel
	Want     uint64 // current counter for this (owner, vaddr)
	Consumed bool   // true when the version matched but the one-time slot was spent
}

func (e *BlobReplayError) Error() string {
	if e.Consumed {
		return fmt.Sprintf("sgx: ELDU: blob for enclave %d vaddr %#x version %d already consumed (replay)", e.Owner, e.Vaddr, e.Have)
	}
	return fmt.Sprintf("sgx: ELDU: stale blob for enclave %d vaddr %#x: version %d, current is %d (replay)", e.Owner, e.Vaddr, e.Have, e.Want)
}

// Is makes errors.Is(err, ErrBlobReplay) true for every freshness rejection.
func (e *BlobReplayError) Is(target error) bool { return target == ErrBlobReplay }

// newPagingAEAD builds the AES-GCM AEAD under the platform paging key. The
// machine builds it once, at New; every EWB seals and every ELDU opens with
// it.
func newPagingAEAD(platformSecret []byte) (cipher.AEAD, error) {
	key := measure.DeriveKey(platformSecret, measure.KeySeal, measure.Digest{}, measure.Digest{}, []byte("epc-paging"))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: paging cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: paging gcm: %w", err)
	}
	return aead, nil
}

// pagingNonce is the GCM nonce of a blob: its one-time slot.
func pagingNonce(slot uint64) (n [12]byte) {
	binary.LittleEndian.PutUint64(n[:], slot)
	return n
}

// aad is the blob metadata the seal authenticates.
func (p *EvictedPage) aad() (a [8 * 5]byte) {
	binary.LittleEndian.PutUint64(a[0:], uint64(p.Owner))
	binary.LittleEndian.PutUint64(a[8:], uint64(p.Vaddr))
	binary.LittleEndian.PutUint64(a[16:], uint64(p.Type))
	binary.LittleEndian.PutUint64(a[24:], uint64(p.Perms))
	binary.LittleEndian.PutUint64(a[32:], p.Version)
	return a
}

// EBlock marks an EPC page blocked: no new TLB translations can be created
// for it (validation fails), the precondition for eviction.
func (m *Machine) EBlock(page int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.EPC.Entry(page)
	if !ent.Valid {
		return isa.GP("EBLOCK: page %d not valid", page)
	}
	if ent.Type == isa.PTSECS {
		return isa.GP("EBLOCK: SECS pages are not evictable in this model")
	}
	ent.Blocked = true
	return nil
}

// ETrack opens a tracking epoch for the enclave and returns the cores whose
// TLBs may hold stale translations and therefore need shootdown IPIs. The
// selection policy is Machine.Tracker — baseline SGX scans threads of the
// enclave itself; the installed InnerAwareTracker adds cores running its
// inner enclaves.
func (m *Machine) ETrack(s *SECS) []*Core {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.trackEpoch++
	return m.Tracker.CoresToShootdown(m, s.EID)
}

// ShootdownFor flushes the target core's TLB, modelling the effect of the
// TLB-shootdown IPI (on real hardware the IPI causes an AEX, whose exit path
// flushes), and bills the IPI to the enclave whose page tracking caused it
// (the eviction victim's owner). The kernel (kos) calls it for each core
// ETrack returned whose IPI the platform delivers.
func (m *Machine) ShootdownFor(c *Core, eid isa.EID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c.TLB.FlushAll()
	m.Rec.ChargeTo(uint64(eid), c.ID, trace.EvIPI, trace.CostIPI)
}

// EWB evicts a blocked EPC page: verifies no TLB anywhere still maps it
// (the hardware's conservative check — a failed shootdown protocol surfaces
// here as an error), seals content+metadata, frees the page. core is the
// processor running the instruction (trace.NoCore for the paging daemon):
// the eviction is one op on that core's span stack, so on the kernel's #PF
// path it parents under the faulting call.
func (m *Machine) EWB(page int, core int) (*EvictedPage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.EPC.Entry(page)
	if !ent.Valid {
		return nil, isa.GP("EWB: page %d not valid", page)
	}
	if !ent.Blocked {
		return nil, isa.GP("EWB: page %d not blocked", page)
	}
	pa := m.EPC.AddrOf(page)
	ppn := pa.PPN()
	// The flush/seal memory traffic bills to the page's owner.
	owner, vaddr := uint64(ent.Owner), ent.Vaddr
	payer := trace.Payer{EID: owner, Core: core}
	op := m.Rec.BeginOp(trace.OpEWB, core, owner, "")
	defer op.End()
	for _, c := range m.cores {
		for _, e := range c.TLB.Entries() {
			if e.PPN == ppn {
				return nil, isa.GP("EWB: core %d still holds a translation for EPC page %d (incomplete shootdown)", c.ID, page)
			}
		}
	}
	if err := m.LLC.ReadInto(pa, m.pageBuf[:], payer); err != nil {
		return nil, err
	}
	if err := m.LLC.FlushRange(pa, isa.PageSize, payer); err != nil {
		return nil, err
	}
	m.vaSlotNext++
	slot := m.vaSlotNext
	if m.blobVer == nil {
		m.blobVer = make(map[blobKey]uint64)
	}
	bk := blobKey{ent.Owner, ent.Vaddr}
	m.blobVer[bk]++
	blob := &EvictedPage{Owner: ent.Owner, Vaddr: ent.Vaddr, Type: ent.Type, Perms: ent.Perms, Slot: slot, Version: m.blobVer[bk]}
	nonce, aad := pagingNonce(slot), blob.aad()
	// The kernel keeps the ciphertext, so it gets a buffer of its own.
	blob.Cipher = m.pagingAEAD.Seal(nil, nonce[:], m.pageBuf[:], aad[:])
	if m.vaSlots == nil {
		m.vaSlots = make(map[uint64]bool)
	}
	m.vaSlots[slot] = true
	m.MEE.DropPage(pa)
	m.DRAM.Zero(pa, isa.PageSize)
	if err := m.EPC.Free(page); err != nil {
		return nil, err
	}
	m.Rec.ChargeToDetail(owner, core, trace.EvEWB, 0, uint64(vaddr))
	return blob, nil
}

// ELDU reloads an evicted page into a fresh EPC page, verifying integrity
// and freshness. Freshness is double-checked: the blob's monotonic version
// must equal the current counter for its (owner, vaddr) lane, and its
// one-time slot must be unspent. Either mismatch is a typed *BlobReplayError
// (errors.Is ErrBlobReplay) — a detection verdict, not a generic fault.
// core is the processor running the instruction, as for EWB.
func (m *Machine) ELDU(blob *EvictedPage, core int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.blobVer[blobKey{blob.Owner, blob.Vaddr}]; blob.Version != cur {
		return 0, &BlobReplayError{Owner: blob.Owner, Vaddr: blob.Vaddr, Have: blob.Version, Want: cur}
	}
	if !m.vaSlots[blob.Slot] {
		return 0, &BlobReplayError{Owner: blob.Owner, Vaddr: blob.Vaddr, Have: blob.Version, Want: blob.Version, Consumed: true}
	}
	nonce, aad := pagingNonce(blob.Slot), blob.aad()
	content, err := m.pagingAEAD.Open(m.pageBuf[:0], nonce[:], blob.Cipher, aad[:])
	if err != nil {
		return 0, isa.GP("ELDU: integrity check failed: %v", err)
	}
	if _, ok := m.secsByEID[blob.Owner]; !ok {
		return 0, isa.GP("ELDU: owner enclave %d no longer exists", blob.Owner)
	}
	owner := uint64(blob.Owner)
	op := m.Rec.BeginOp(trace.OpELD, core, owner, "")
	defer op.End()
	page, err := m.EPC.Alloc(blob.Owner, blob.Type, blob.Vaddr, blob.Perms)
	if err != nil {
		return 0, isa.GP("ELDU: %v", err)
	}
	if err := m.LLC.Write(m.EPC.AddrOf(page), content, trace.Payer{EID: owner, Core: core}); err != nil {
		_ = m.EPC.Free(page)
		return 0, err
	}
	delete(m.vaSlots, blob.Slot)
	m.Rec.ChargeToDetail(owner, core, trace.EvELD, 0, uint64(blob.Vaddr))
	return page, nil
}

// FindRegPage returns, under the machine lock, the index of the valid
// regular EPC page of enclave s recorded at vaddr. Kernel code (which runs on
// its own thread of execution) must use this instead of scanning m.EPC
// directly, which is only safe while holding the instruction lock.
func (m *Machine) FindRegPage(s *SECS, vaddr isa.VAddr) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := 0; i < m.EPC.NumPages(); i++ {
		ent := m.EPC.Entry(i)
		if ent.Valid && ent.Owner == s.EID && ent.Type == isa.PTReg && ent.Vaddr == vaddr.PageBase() {
			return i, true
		}
	}
	return 0, false
}

// EvictionCandidate is the paging daemon's victim search: it runs
// epc.Manager.EvictionCandidate under the machine lock and returns the
// victim with a copy of its EPCM entry. It allocates nothing.
func (m *Machine) EvictionCandidate(start, count int, skip isa.EID) (int, epc.Entry, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, ok := m.EPC.EvictionCandidate(start, count, skip)
	if !ok {
		return 0, epc.Entry{}, false
	}
	return i, *m.EPC.Entry(i), true
}

// FreeEPCPages returns the free-page count under the machine read lock.
func (m *Machine) FreeEPCPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.EPC.FreePages()
}

// AuditTLBs walks every TLB and reports entries whose physical page is a
// freed or blocked EPC page. Tests and the adversary campaign run it next to
// AuditInvariants.
func (m *Machine) AuditTLBs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var bad []string
	for _, c := range m.cores {
		for _, e := range c.TLB.Entries() {
			pa := isa.PAddr(e.PPN << isa.PageShift)
			if !m.DRAM.PageInPRM(pa) {
				continue
			}
			ent, ok := m.EPC.EntryAt(pa)
			if !ok || !ent.Valid || ent.Blocked {
				bad = append(bad, fmt.Sprintf("core %d vpn %#x -> stale EPC ppn %#x", c.ID, e.VPN, e.PPN))
			}
		}
	}
	return bad
}
