package sgx_test

import (
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
)

// verdictOf collapses a validator verdict into a comparable label.
func verdictOf(v sgx.Verdict) string {
	switch v.Path {
	case sgx.PathBaseline, sgx.PathOuter:
		return "ok"
	case sgx.PathAbort:
		return "abort"
	}
	switch v.Fault.Class {
	case isa.FaultPF:
		return "#PF"
	case isa.FaultGP:
		return "#GP"
	}
	return "?"
}

// TestBaselineValidateTable walks every branch of the baseline (Figure-2)
// access-validation flow by fabricating PTEs directly — requester mode ×
// EPCM owner match/mismatch × vaddr match/alias × in/out-ELRANGE × page type
// × permission intersection. With no enclave associated, the installed
// Figure-6 validator must make exactly these checks; its nested
// cross-product lives in internal/core.
func TestBaselineValidateTable(t *testing.T) {
	r := newRig(t)
	m := r.m
	baseA, baseB := isa.VAddr(0x1000_0000), isa.VAddr(0x2000_0000)
	sA, _ := buildEnclave(t, r.k, r.p, baseA, 2)
	sB, _ := buildEnclave(t, r.k, r.p, baseB, 2)

	// Physical frames of interest.
	frameOf := func(s *sgx.SECS, v isa.VAddr) uint64 {
		for _, i := range sgx.EPCOf(m).PagesOf(s.EID) {
			if ent := sgx.EPCOf(m).Entry(i); ent.Vaddr == v {
				return uint64(sgx.EPCOf(m).AddrOf(i)) >> isa.PageShift
			}
		}
		t.Fatalf("no EPC page at %#x", uint64(v))
		return 0
	}
	aData0 := frameOf(sA, baseA)              // A's data page 0
	aData1 := frameOf(sA, baseA+isa.PageSize) // A's data page 1
	bData0 := frameOf(sB, baseB)              // B's data page 0
	aTCS := frameOf(sA, baseA+2*isa.PageSize) // A's TCS page (non-PTReg)
	// A free EPC frame: valid bit clear in the EPCM.
	var freeEPC uint64
	used := map[int]bool{}
	for _, s := range []*sgx.SECS{sA, sB} {
		for _, i := range sgx.EPCOf(m).PagesOf(s.EID) {
			used[i] = true
		}
	}
	for i := 0; ; i++ {
		if !used[i] {
			freeEPC = uint64(sgx.EPCOf(m).AddrOf(i)) >> isa.PageShift
			break
		}
	}
	// A DRAM frame outside PRM.
	var plain uint64
	for ppn := uint64(1); ; ppn++ {
		if !m.DRAM.PageInPRM(isa.PAddr(ppn << isa.PageShift)) {
			plain = ppn
			break
		}
	}

	// Core 0 runs inside enclave A for the enclave-mode rows; core 1 stays
	// untrusted. Validate mutates nothing, so one entry serves all rows.
	r.enter(t, sA, baseA+2*isa.PageSize)
	inA, host := m.Core(0), m.Core(1)

	tests := []struct {
		name  string
		c     *sgx.Core
		v     isa.VAddr
		ppn   uint64
		perms isa.Perm
		op    isa.Access
		want  string
	}{
		{"pte permission denies first", host, 0x40_0000, plain, isa.PermR, isa.Write, "#PF"},
		{"host to plain DRAM ok", host, 0x40_0000, plain, isa.PermRW, isa.Write, "ok"},
		{"host to PRM aborts", host, 0x40_0000, aData0, isa.PermRW, isa.Read, "abort"},
		{"host to free EPC frame aborts", host, 0x40_0000, freeEPC, isa.PermRW, isa.Read, "abort"},

		{"owner+vaddr match ok", inA, baseA, aData0, isa.PermRW, isa.Write, "ok"},
		{"EPCM strips execute", inA, baseA, aData0, isa.PermRWX, isa.Execute, "#PF"},
		{"vaddr alias within own enclave aborts", inA, baseA, aData1, isa.PermRW, isa.Read, "abort"},
		{"foreign owner aborts (at A's vaddr)", inA, baseA, bData0, isa.PermRW, isa.Read, "abort"},
		{"foreign owner aborts (at B's vaddr)", inA, baseB, bData0, isa.PermRW, isa.Read, "abort"},
		{"TCS page inaccessible", inA, baseA + 2*isa.PageSize, aTCS, isa.PermRW, isa.Read, "abort"},
		{"free EPC frame aborts", inA, baseA, freeEPC, isa.PermRW, isa.Read, "abort"},

		{"ELRANGE vaddr outside PRM faults (evicted)", inA, baseA, plain, isa.PermRW, isa.Read, "#PF"},
		{"enclave to unsecure DRAM ok", inA, 0x40_0000, plain, isa.PermRW, isa.Write, "ok"},
		{"no execute from unsecure memory", inA, 0x40_0000, plain, isa.PermRWX, isa.Execute, "#PF"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pte := pt.PTE{PPN: tc.ppn, Perms: tc.perms, Present: true}
			entry, verdict := m.Validator.Validate(tc.c, tc.v, pte, tc.op)
			if got := verdictOf(verdict); got != tc.want {
				t.Fatalf("got %s, want %s (verdict %+v)", got, tc.want, verdict)
			}
			if tc.want == "ok" && entry.PPN != tc.ppn {
				t.Fatalf("fills ppn %#x, want %#x", entry.PPN, tc.ppn)
			}
		})
	}

	// The blocked-page branch mutates EPCM state, so it runs after the table:
	// blocking B's page turns the foreign-owner abort into #PF (the blocked
	// check precedes the owner check, giving the kernel a fault to repair).
	var bIdx = -1
	for _, i := range sgx.EPCOf(m).PagesOf(sB.EID) {
		if ent := sgx.EPCOf(m).Entry(i); ent.Vaddr == baseB && ent.Type == isa.PTReg {
			bIdx = i
		}
	}
	if err := m.EBlock(bIdx); err != nil {
		t.Fatalf("EBLOCK: %v", err)
	}
	_, verdict := m.Validator.Validate(inA, baseB, pt.PTE{PPN: bData0, Perms: isa.PermRW, Present: true}, isa.Read)
	if got := verdictOf(verdict); got != "#PF" {
		t.Fatalf("blocked page: got %s, want #PF", got)
	}
}
