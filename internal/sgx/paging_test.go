package sgx_test

import (
	"bytes"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
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

	free := r.m.EPC.FreePages()
	if err := r.k.Driver.EvictPage(r.p, s, 0x100000); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if r.m.EPC.FreePages() != free+1 {
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
	pageIdx := r.m.EPC.PagesOf(s.EID)
	_ = pageIdx
	// Evict by hand so we hold the blob.
	var idx = -1
	for _, i := range r.m.EPC.PagesOf(s.EID) {
		if e := r.m.EPC.Entry(i); e.Type == isa.PTReg {
			idx = i
		}
	}
	if err := r.m.EBlock(idx); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.m.ETrack(s) {
		r.m.ShootdownFor(c, isa.NoEnclave)
	}
	blob, err := r.m.EWB(idx, trace.NoCore)
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
	for _, i := range r.m.EPC.PagesOf(s.EID) {
		if e := r.m.EPC.Entry(i); e.Type == isa.PTReg {
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
	for _, i := range r.m.EPC.PagesOf(s.EID) {
		if e := r.m.EPC.Entry(i); e.Type == isa.PTSECS {
			if err := r.m.EBlock(i); err == nil {
				t.Fatal("EBLOCK of SECS accepted")
			}
		}
	}
	// EWB without EBLOCK is refused.
	var tcsIdx = -1
	for _, i := range r.m.EPC.PagesOf(s.EID) {
		if e := r.m.EPC.Entry(i); e.Type == isa.PTTCS {
			tcsIdx = i
		}
	}
	if _, err := r.m.EWB(tcsIdx, trace.NoCore); err == nil {
		t.Fatal("EWB of unblocked page accepted")
	}
}

func TestAuditTLBsDetectsStaleEntries(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	if _, err := r.c.Read(0x100000, 4); err != nil {
		t.Fatal(err)
	}
	if bad := r.m.AuditTLBs(); len(bad) != 0 {
		t.Fatalf("clean state audited dirty: %v", bad)
	}
	// Block the page while its translation is live: the audit flags it.
	for _, i := range r.m.EPC.PagesOf(s.EID) {
		if e := r.m.EPC.Entry(i); e.Type == isa.PTReg {
			if err := r.m.EBlock(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if bad := r.m.AuditTLBs(); len(bad) == 0 {
		t.Fatal("stale translation not detected")
	}
	r.exit(t)
}
