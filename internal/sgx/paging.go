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
// the content is sealed under a paging key, with a per-(owner, vaddr)
// monotonic version counter bound into the seal, so the kernel can neither
// read, modify, nor replay it — not even by presenting a stale blob of the
// same page from an earlier eviction round, or the current blob twice.
type EvictedPage struct {
	Owner   isa.EID
	Vaddr   isa.VAddr
	Type    isa.PageType
	Perms   isa.Perm
	Slot    uint64   // GCM nonce: one-time, from a machine-wide counter; a forged one fails the open
	Version uint64   // monotonic per-(owner, vaddr) eviction counter, bound into the AAD
	Cipher  []byte   // AES-GCM(page content), nonce bound to Slot: exactly one page
	Tag     [16]byte // the GCM tag over Cipher and the metadata
}

// blobKey identifies the version lane of an evicted page: one per (owner
// enclave, page base) pair.
type blobKey struct {
	owner isa.EID
	vaddr isa.VAddr
}

// blobLane is the freshness record of one page: the version of its latest
// eviction, and whether that version's blob is out (evicted, not yet
// reloaded). ELDU accepts only the current version's blob, and only while
// it is out.
type blobLane struct {
	ver uint64
	out bool
}

// ErrBlobReplay is the sentinel all blob-freshness failures match via
// errors.Is: the kernel presented a sealed EWB blob that is not the most
// recent eviction of its page (a replay), or the most recent one after it
// was already loaded (a double load). It is a *detection* — the malicious
// input was rejected before any stale data entered the EPC — and it is
// permanent: retrying the same blob can never succeed.
var ErrBlobReplay = errors.New("sgx: evicted-page blob replay detected")

// BlobReplayError carries the freshness evidence for an ELDU rejection.
type BlobReplayError struct {
	Owner    isa.EID
	Vaddr    isa.VAddr
	Have     uint64 // version presented by the kernel
	Want     uint64 // current counter for this (owner, vaddr)
	Consumed bool   // true when the version matched but its blob was already loaded
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

// sealParams fills the machine's nonce and AAD scratch for blob p and
// returns them: the GCM nonce is the blob's one-time slot, and the AAD is the
// metadata the seal authenticates. As machine fields they cost no
// allocation, where locals would escape through the cipher.AEAD interface.
// Caller holds m.mu exclusively.
func (m *Machine) sealParams(p *EvictedPage) (nonce, aad []byte) {
	binary.LittleEndian.PutUint64(m.nonce[:], p.Slot)
	binary.LittleEndian.PutUint64(m.aad[0:], uint64(p.Owner))
	binary.LittleEndian.PutUint64(m.aad[8:], uint64(p.Vaddr))
	binary.LittleEndian.PutUint64(m.aad[16:], uint64(p.Type))
	binary.LittleEndian.PutUint64(m.aad[24:], uint64(p.Perms))
	binary.LittleEndian.PutUint64(m.aad[32:], p.Version)
	return m.nonce[:], m.aad[:]
}

// EBlock marks an EPC page blocked: no new TLB translations can be created
// for it (validation fails), the precondition for eviction.
func (m *Machine) EBlock(page int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.epc.Entry(page)
	if !ent.Valid {
		return isa.GP("EBLOCK: page %d not valid", page)
	}
	if ent.Type == isa.PTSECS {
		return isa.GP("EBLOCK: SECS pages are not evictable in this model")
	}
	ent.Blocked = true
	return nil
}

// ETrack asks the machine's Tracker which cores' TLBs may hold stale
// translations of the enclave's pages and therefore need shootdown IPIs,
// and appends them to dst, returning the extended slice (nil dst is fine).
// Baseline SGX scans threads of the enclave itself; the installed
// InnerAwareTracker adds cores running its inner enclaves. The kernel
// passes a buffer of its own, so ETRACK allocates nothing.
func (m *Machine) ETrack(s *SECS, dst []*Core) []*Core {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Tracker.CoresToShootdown(m, s.EID, dst)
}

// ShootdownFor flushes the target core's TLB, modelling the effect of the
// TLB-shootdown IPI (on real hardware the IPI causes an AEX, whose exit path
// flushes), and bills the IPI to the enclave whose page tracking caused it
// (the eviction victim's owner). The kernel (kos) calls it for each core
// ETrack returned whose IPI the platform delivers.
func (m *Machine) ShootdownFor(c *Core, eid isa.EID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c.tlb.FlushAll()
	m.Rec.ChargeTo(uint64(eid), c.ID, trace.EvIPI, trace.CostIPI)
}

// EWB evicts a blocked EPC page: verifies no TLB anywhere still maps it
// (the hardware's conservative check — a failed shootdown protocol surfaces
// here as an error), seals content+metadata, frees the page. core is the
// processor running the instruction (trace.NoCore for the paging daemon):
// the eviction is one op on that core's span stack, so on the kernel's #PF
// path it parents under the faulting call.
//
// The sealed blob goes where the kernel says, as SGX's EWB writes to the page
// PAGEINFO.SRCPGE names: dst is overwritten, struct and ciphertext, reusing
// the ciphertext's array when it holds a page, and returned; a nil dst gets
// a fresh blob. Cipher is left exactly one page long, len and cap, with the
// tag beside it in Tag, so a stored blob fills its allocation. On error dst
// is left to the caller.
func (m *Machine) EWB(page int, core int, dst *EvictedPage) (*EvictedPage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := m.epc.Entry(page)
	if !ent.Valid {
		return nil, isa.GP("EWB: page %d not valid", page)
	}
	if !ent.Blocked {
		return nil, isa.GP("EWB: page %d not blocked", page)
	}
	pa := m.epc.AddrOf(page)
	ppn := pa.PPN()
	// The flush/seal memory traffic bills to the page's owner.
	owner, vaddr := uint64(ent.Owner), ent.Vaddr
	payer := trace.Payer{EID: owner, Core: core}
	op := m.Rec.BeginOp(trace.OpEWB, core, owner, "")
	defer op.End()
	for _, c := range m.cores {
		if c.tlb.MapsFrame(ppn) {
			return nil, isa.GP("EWB: core %d still holds a translation for EPC page %d (incomplete shootdown)", c.ID, page)
		}
	}
	if err := m.llc.ReadInto(pa, m.pageBuf[:isa.PageSize], payer); err != nil {
		return nil, err
	}
	if err := m.llc.FlushRange(pa, isa.PageSize, payer); err != nil {
		return nil, err
	}
	m.vaSlotNext++
	if m.blobLanes == nil {
		m.blobLanes = make(map[blobKey]blobLane)
	}
	bk := blobKey{ent.Owner, ent.Vaddr}
	lane := blobLane{ver: m.blobLanes[bk].ver + 1, out: true}
	m.blobLanes[bk] = lane
	if dst == nil {
		dst = new(EvictedPage)
	}
	ct := dst.Cipher
	if cap(ct) < isa.PageSize {
		ct = make([]byte, isa.PageSize)
	}
	*dst = EvictedPage{Owner: ent.Owner, Vaddr: ent.Vaddr, Type: ent.Type, Perms: ent.Perms, Slot: m.vaSlotNext, Version: lane.ver, Cipher: ct[:isa.PageSize:isa.PageSize]}
	nonce, aad := m.sealParams(dst)
	sealed := m.pagingAEAD.Seal(m.pageBuf[:0], nonce, m.pageBuf[:isa.PageSize], aad)
	copy(dst.Cipher, sealed)
	copy(dst.Tag[:], sealed[isa.PageSize:])
	m.mee.DropPage(pa)
	m.DRAM.Zero(pa, isa.PageSize)
	if err := m.epc.Free(page); err != nil {
		return nil, err
	}
	m.Rec.ChargeToDetail(owner, core, trace.EvEWB, 0, uint64(vaddr))
	return dst, nil
}

// ELDU reloads an evicted page into a fresh EPC page, verifying integrity
// and freshness. Its owner must still exist: as SGX checks the SECS operand
// first, a blob of a removed enclave is a #GP. Freshness is the blob's
// (owner, vaddr) lane: its version must equal the lane's counter, and that
// version's blob must still be out. Either failure is a typed
// *BlobReplayError (errors.Is ErrBlobReplay) — a detection verdict, not a
// generic fault. A Cipher that is not one page long is a #GP, and any other
// change to the blob fails the GCM open, a #GP; either way the lane keeps
// its blob out, so the genuine blob still reloads. core is the processor
// running the instruction, as for EWB.
func (m *Machine) ELDU(blob *EvictedPage, core int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.secsByEID[blob.Owner]; !ok {
		return 0, isa.GP("ELDU: owner enclave %d no longer exists", blob.Owner)
	}
	bk := blobKey{blob.Owner, blob.Vaddr}
	lane := m.blobLanes[bk]
	if blob.Version != lane.ver {
		return 0, &BlobReplayError{Owner: blob.Owner, Vaddr: blob.Vaddr, Have: blob.Version, Want: lane.ver}
	}
	if !lane.out {
		return 0, &BlobReplayError{Owner: blob.Owner, Vaddr: blob.Vaddr, Have: blob.Version, Want: lane.ver, Consumed: true}
	}
	if len(blob.Cipher) != isa.PageSize {
		return 0, isa.GP("ELDU: blob holds %d bytes of ciphertext, want %d", len(blob.Cipher), isa.PageSize)
	}
	copy(m.pageBuf[:], blob.Cipher)
	copy(m.pageBuf[isa.PageSize:], blob.Tag[:])
	nonce, aad := m.sealParams(blob)
	content, err := m.pagingAEAD.Open(m.pageBuf[:0], nonce, m.pageBuf[:], aad)
	if err != nil {
		return 0, isa.GP("ELDU: integrity check failed: %v", err)
	}
	owner := uint64(blob.Owner)
	op := m.Rec.BeginOp(trace.OpELD, core, owner, "")
	defer op.End()
	page, err := m.epc.Alloc(blob.Owner, blob.Type, blob.Vaddr, blob.Perms)
	if err != nil {
		return 0, isa.GP("ELDU: %v", err)
	}
	if err := m.llc.Write(m.epc.AddrOf(page), content, trace.Payer{EID: owner, Core: core}); err != nil {
		_ = m.epc.Free(page)
		return 0, err
	}
	m.blobLanes[bk] = blobLane{ver: lane.ver}
	if blob.Type == isa.PTTCS {
		// A TCS follows its page to the frame it reloads into.
		if t, err := m.secsByEID[blob.Owner].FindTCS(blob.Vaddr); err == nil {
			t.page = page
		}
	}
	m.Rec.ChargeToDetail(owner, core, trace.EvELD, 0, uint64(blob.Vaddr))
	return page, nil
}

// forgetPaging drops a removed enclave's paging bookkeeping, its version
// lanes. EIDs are never reused, so nothing can consult them again; ELDU
// refuses any blob of the enclave for want of its SECS. Caller holds m.mu
// exclusively.
func (m *Machine) forgetPaging(owner isa.EID) {
	for k := range m.blobLanes {
		if k.owner == owner {
			delete(m.blobLanes, k)
		}
	}
}

// The kernel's EPCM read window. Real SGX hands the kernel no EPCM reads,
// but the Linux driver keeps the same facts in its own page tracking; here
// the kernel reads them from the EPCM rather than keep a shadow of it. Each
// read runs under the machine read lock and returns values, never EPCM
// state.

// FindRegPage returns the index of the valid regular EPC page of enclave s
// recorded at vaddr.
func (m *Machine) FindRegPage(s *SECS, vaddr isa.VAddr) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := 0; i < m.epc.NumPages(); i++ {
		ent := m.epc.Entry(i)
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
	i, ok := m.epc.EvictionCandidate(start, count, skip)
	if !ok {
		return 0, epc.Entry{}, false
	}
	return i, *m.epc.Entry(i), true
}

// FreeEPCPages returns the free-page count.
func (m *Machine) FreeEPCPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epc.FreePages()
}

// EPCPagesOf returns the indices of the valid EPC pages of enclave eid in
// the order EREMOVE accepts them: its other pages in EPC order, then its
// SECS page.
func (m *Machine) EPCPagesOf(eid isa.EID) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pages := m.epc.PagesOf(eid)
	for i, p := range pages {
		if m.epc.Entry(p).Type == isa.PTSECS {
			copy(pages[i:], pages[i+1:])
			pages[len(pages)-1] = p
			break
		}
	}
	return pages
}

// EPCMEntry returns a copy of the EPCM entry governing physical address pa,
// and false outside the EPC. It is the EPCM read of the Validator seam and
// takes no lock: its caller holds the machine lock, as a Validator does, or
// drives a machine no other goroutine runs.
func (m *Machine) EPCMEntry(pa isa.PAddr) (epc.Entry, bool) {
	ent, ok := m.epc.EntryAt(pa)
	if !ok {
		return epc.Entry{}, false
	}
	return *ent, true
}
