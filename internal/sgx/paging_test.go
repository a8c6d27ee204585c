package sgx_test

import (
	"bytes"
	"strings"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

func TestEvictionRoundTrip(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 2)

	// Store a secret, then exit (flushing the TLB so eviction can proceed).
	r.enter(t, s, tcsV)
	secret := []byte("survives-a-trip-through-untrusted-swap")
	if err := r.c.Write(0x100040, secret); err != nil {
		t.Fatal(err)
	}
	r.exit(t)

	free := sgx.EPCOf(r.m).FreePages()
	if err := r.k.Driver.EvictPage(r.p, s, 0x100000); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if sgx.EPCOf(r.m).FreePages() != free+1 {
		t.Fatal("EWB did not free the EPC page")
	}
	if r.k.Driver.EvictedCount() != 1 {
		t.Fatal("blob not stored")
	}

	// The next enclave access faults, the kernel reloads transparently, and
	// the data is intact.
	r.enter(t, s, tcsV)
	got, err := r.c.Read(0x100040, len(secret))
	if err != nil {
		t.Fatalf("read after eviction: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("data corrupted across eviction: %q", got)
	}
	r.exit(t)
	if r.k.Driver.EvictedCount() != 0 {
		t.Fatal("blob not consumed on reload")
	}
	if r.m.Rec.Get(trace.EvEWB) == 0 || r.m.Rec.Get(trace.EvELD) == 0 {
		t.Fatal("paging events not counted")
	}
}

func TestEvictedBlobIsOpaqueToKernel(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	secret := []byte("kernel-must-not-see-this-in-swap")
	if err := r.c.Write(0x100000, secret); err != nil {
		t.Fatal(err)
	}
	r.exit(t)
	pageIdx := sgx.EPCOf(r.m).PagesOf(s.EID)
	_ = pageIdx
	// Evict by hand so we hold the blob.
	var idx = -1
	for _, i := range sgx.EPCOf(r.m).PagesOf(s.EID) {
		if e := sgx.EPCOf(r.m).Entry(i); e.Type == isa.PTReg {
			idx = i
		}
	}
	if err := r.m.EBlock(idx); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.m.ETrack(s, nil) {
		r.m.ShootdownFor(c, isa.NoEnclave)
	}
	blob, err := r.m.EWB(idx, trace.NoCore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob.Cipher, secret[:8]) {
		t.Fatal("evicted blob contains plaintext")
	}
	// Tampering with the blob is detected at reload.
	blob.Cipher[0] ^= 1
	if _, err := r.m.ELDU(blob, trace.NoCore); err == nil {
		t.Fatal("tampered blob reloaded")
	}
	blob.Cipher[0] ^= 1
	page, err := r.m.ELDU(blob, trace.NoCore)
	if err != nil {
		t.Fatal(err)
	}
	// Replay of the consumed blob is rejected (freshness).
	if _, err := r.m.ELDU(blob, trace.NoCore); err == nil {
		t.Fatal("replayed blob reloaded")
	}
	_ = page
}

// noShootdown is a kernel that skips every TLB-shootdown IPI.
type noShootdown struct{ sgx.Honest }

func (noShootdown) DeliverIPI(isa.EID, int) bool { return false }

func TestEWBRefusesWithStaleTranslations(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	// Enter and touch the page so the TLB holds its translation, and STAY
	// in the enclave (no exit, no flush).
	r.enter(t, s, tcsV)
	if _, err := r.c.Read(0x100000, 8); err != nil {
		t.Fatal(err)
	}
	r.m.SetHostile(noShootdown{})
	err := r.k.Driver.EvictPage(r.p, s, 0x100000)
	if err == nil {
		t.Fatal("EWB succeeded with a live TLB translation and no shootdown")
	}
	r.m.SetHostile(nil)
	// With the protocol followed, the same eviction succeeds: ETRACK names
	// this core, the IPI flushes its TLB.
	// First unblock: the failed attempt left the page blocked, which is
	// fine — retry the full protocol.
	if err := r.k.Driver.EvictPage(r.p, s, 0x100000); err != nil {
		t.Fatalf("evict after shootdown: %v", err)
	}
	// The in-enclave access now faults and transparently reloads.
	got, err := r.c.Read(0x100000, 4)
	if err != nil {
		t.Fatalf("read after reload: %v", err)
	}
	if !bytes.Equal(got, []byte{0x5a, 0x5a, 0x5a, 0x5a}) {
		t.Fatalf("reloaded content: %v", got)
	}
	r.exit(t)
}

func TestBlockedPageFaultsInsteadOfAborting(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	var idx = -1
	for _, i := range sgx.EPCOf(r.m).PagesOf(s.EID) {
		if e := sgx.EPCOf(r.m).Entry(i); e.Type == isa.PTReg {
			idx = i
		}
	}
	if err := r.m.EBlock(idx); err != nil {
		t.Fatal(err)
	}
	r.enter(t, s, tcsV)
	_, err := r.c.Read(0x100000, 4)
	if !isa.IsFault(err, isa.FaultPF) {
		t.Fatalf("blocked page access returned %v, want #PF", err)
	}
	r.exit(t)
	// EBLOCK of SECS pages is refused.
	for _, i := range sgx.EPCOf(r.m).PagesOf(s.EID) {
		if e := sgx.EPCOf(r.m).Entry(i); e.Type == isa.PTSECS {
			if err := r.m.EBlock(i); err == nil {
				t.Fatal("EBLOCK of SECS accepted")
			}
		}
	}
	// EWB without EBLOCK is refused.
	var tcsIdx = -1
	for _, i := range sgx.EPCOf(r.m).PagesOf(s.EID) {
		if e := sgx.EPCOf(r.m).Entry(i); e.Type == isa.PTTCS {
			tcsIdx = i
		}
	}
	if _, err := r.m.EWB(tcsIdx, trace.NoCore, nil); err == nil {
		t.Fatal("EWB of unblocked page accepted")
	}
}

// TestAuditTLBsDetectsStaleEntries plants a TLB entry for a freed EPC frame
// and checks that AuditInvariants flags it both in enclave mode (an ELRANGE
// page mapped to an invalid EPC page) and out of it (a PRM frame mapped at
// all). A live translation of a blocked page is not flagged: SGX allows it
// until ETRACK's epoch ends, and EWB refuses the page while it stands.
func TestAuditTLBsDetectsStaleEntries(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 2)
	freedIdx, ok := r.m.FindRegPage(s, 0x101000)
	if !ok {
		t.Fatal("no page at 0x101000")
	}
	freed := sgx.EPCOf(r.m).AddrOf(freedIdx)
	evictByHand(t, r, s, 0x101000, nil)
	stale := tlb.Entry{VPN: isa.VAddr(0x101000).VPN(), PPN: freed.PPN(), Perms: isa.PermRW, FilledInEnclave: true, FilledEID: s.EID}

	r.enter(t, s, tcsV)
	if _, err := r.c.Read(0x100000, 4); err != nil {
		t.Fatal(err)
	}
	if bad := r.m.AuditInvariants(); len(bad) != 0 {
		t.Fatalf("clean state audited dirty: %v", bad)
	}
	live, _ := r.m.FindRegPage(s, 0x100000)
	if err := r.m.EBlock(live); err != nil {
		t.Fatal(err)
	}
	if bad := r.m.AuditInvariants(); len(bad) != 0 {
		t.Fatalf("live translation of a blocked page audited dirty: %v", bad)
	}
	sgx.InsertTLB(r.c, stale)
	if bad := r.m.AuditInvariants(); len(bad) != 1 || !strings.HasPrefix(bad[0], "inv3") {
		t.Fatalf("in enclave mode, freed-frame translation audited as %v, want one inv3", bad)
	}
	r.exit(t)
	sgx.InsertTLB(r.c, stale)
	if bad := r.m.AuditInvariants(); len(bad) != 1 || !strings.HasPrefix(bad[0], "inv1") {
		t.Fatalf("out of enclave mode, freed-frame translation audited as %v, want one inv1", bad)
	}
}

// evictByHand runs EBLOCK, ETRACK with its shootdowns, and EWB on the
// enclave's regular page at vaddr, sealing into dst, and returns the blob.
// The page table is left as it is.
func evictByHand(t *testing.T, r *rig, s *sgx.SECS, vaddr isa.VAddr, dst *sgx.EvictedPage) *sgx.EvictedPage {
	t.Helper()
	idx, ok := r.m.FindRegPage(s, vaddr)
	if !ok {
		t.Fatalf("enclave %d has no regular page at %#x", s.EID, uint64(vaddr))
	}
	if err := r.m.EBlock(idx); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.m.ETrack(s, nil) {
		r.m.ShootdownFor(c, s.EID)
	}
	blob, err := r.m.EWB(idx, trace.NoCore, dst)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestEWBSealsIntoCallerBlob reloads a page and evicts another into the
// first page's spent blob: EWB returns that blob, reuses its ciphertext's
// backing array, and ELDU reloads the second page's bytes from it.
func TestEWBSealsIntoCallerBlob(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 2)
	spent := evictByHand(t, r, s, 0x100000, nil)
	page, err := r.m.ELDU(spent, trace.NoCore)
	if err != nil {
		t.Fatal(err)
	}
	r.p.MapFixed(0x100000, sgx.EPCOf(r.m).AddrOf(page), isa.PermRW)
	backing := &spent.Cipher[0]
	blob := evictByHand(t, r, s, 0x101000, spent)
	if blob != spent || &blob.Cipher[0] != backing {
		t.Fatal("EWB did not seal into the blob it was given")
	}
	if blob.Owner != s.EID || blob.Vaddr != 0x101000 || blob.Version != 1 {
		t.Fatalf("reused blob describes enclave %d page %#x version %d", blob.Owner, uint64(blob.Vaddr), blob.Version)
	}
	page, err = r.m.ELDU(blob, trace.NoCore)
	if err != nil {
		t.Fatal(err)
	}
	r.p.MapFixed(0x101000, sgx.EPCOf(r.m).AddrOf(page), isa.PermRW)
	r.enter(t, s, tcsV)
	got, err := r.c.Read(0x101000, 4)
	r.exit(t)
	if err != nil || !bytes.Equal(got, []byte{0x5a, 0x5a, 0x5a, 0x5a}) {
		t.Fatalf("page reloaded from a reused blob reads %v, %v", got, err)
	}
}

// TestTeardownForgetsPagingState swaps pages of two enclaves out and
// destroys one of them. The machine then keeps no version lane for the dead
// EID, ELDU still refuses its last blob without taking an EPC page, and the
// live enclave's lane and blob are untouched.
func TestTeardownForgetsPagingState(t *testing.T) {
	r := newRig(t)
	s, _ := buildEnclave(t, r.k, r.p, 0x100000, 2)
	o, _ := buildEnclave(t, r.k, r.p, 0x200000, 1)
	first := evictByHand(t, r, s, 0x100000, nil)
	if _, err := r.m.ELDU(first, trace.NoCore); err != nil {
		t.Fatal(err)
	}
	last := evictByHand(t, r, s, 0x100000, nil)
	evictByHand(t, r, s, 0x101000, nil)
	kept := evictByHand(t, r, o, 0x200000, nil)
	if lanes, out := sgx.PagingStateOf(r.m, s.EID); lanes != 2 || out != 2 {
		t.Fatalf("before teardown: %d lanes and %d blobs out, want 2 and 2", lanes, out)
	}
	if err := r.k.Driver.DestroyEnclave(r.p, s); err != nil {
		t.Fatal(err)
	}
	if lanes, out := sgx.PagingStateOf(r.m, s.EID); lanes != 0 || out != 0 {
		t.Fatalf("after teardown: %d lanes and %d blobs out left for enclave %d", lanes, out, s.EID)
	}
	free := r.m.FreeEPCPages()
	if _, err := r.m.ELDU(last, trace.NoCore); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("ELDU of a destroyed enclave's blob: %v, want #GP", err)
	}
	if n := r.m.FreeEPCPages(); n != free {
		t.Fatalf("refused ELDU moved the free EPC pages from %d to %d", free, n)
	}
	if lanes, out := sgx.PagingStateOf(r.m, o.EID); lanes != 1 || out != 1 {
		t.Fatalf("live enclave: %d lanes and %d blobs out, want 1 and 1", lanes, out)
	}
	if _, err := r.m.ELDU(kept, trace.NoCore); err != nil {
		t.Fatalf("live enclave's blob after another's teardown: %v", err)
	}
}
