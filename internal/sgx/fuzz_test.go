package sgx_test

import (
	"bytes"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/model"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/simtest"
)

// fuzzContexts builds one machine/oracle pair (via the simtest lockstep
// runner, so both sides are synchronized by construction) with every
// protection context the Figure-6 flow distinguishes live at once:
//
//	core 0 — untrusted
//	core 1 — inner enclave, entered from the outer via NEENTER
//	core 2 — outer enclave
//	core 3 — inner enclave, EENTERed directly from untrusted code
//
// Validate mutates nothing, so one pair serves every fuzz execution.
func fuzzContexts(f *testing.F) *simtest.Runner {
	f.Helper()
	r := simtest.NewRunner(2, false)
	ops := []simtest.Op{
		{Kind: simtest.OpBuild, Slot: 0},
		{Kind: simtest.OpBuild, Slot: 1},
		{Kind: simtest.OpAssociate, Slot: 1, A: 0},
		{Kind: simtest.OpEnter, Core: 1, Slot: 0, A: 0},
		{Kind: simtest.OpNEnter, Core: 1, Slot: 1, A: 0},
		{Kind: simtest.OpEnter, Core: 2, Slot: 0, A: 1},
		{Kind: simtest.OpEnter, Core: 3, Slot: 1, A: 1},
	}
	if _, err := r.RunOps(ops); err != nil {
		f.Fatalf("context setup: %v", err)
	}
	return r
}

// FuzzAccessValidate differentially fuzzes the machine's installed access
// validator (sgx.Figure6Validator, the one flow every machine runs) against
// the model
// oracle's pure Validate: for every (core, vaddr, fabricated PTE, access)
// tuple the fuzzer invents, both must agree on the verdict and — when the
// access is allowed — on the physical page and effective permissions of the
// TLB entry that would be filled.
func FuzzAccessValidate(f *testing.F) {
	r := fuzzContexts(f)
	m := r.Machine()
	o := r.Oracle()

	// Interesting vaddrs: every page of both ELRANGEs plus one page past each,
	// the unsecure window, and an address no region claims.
	var vaddrs []isa.VAddr
	for slot := 0; slot < 2; slot++ {
		base := r.Slot(slot).Base
		for k := 0; k <= 5; k++ {
			vaddrs = append(vaddrs, base+isa.VAddr(k)*isa.PageSize)
		}
	}
	vaddrs = append(vaddrs, 0x0040_0000, 0x0040_2000, 0x0077_0000)

	// Interesting frames: every EPC page of both enclaves (SECS and TCS pages
	// included — mapping those must abort), non-PRM DRAM, and PRM frames with
	// no valid EPCM entry.
	var ppns []uint64
	for slot := 0; slot < 2; slot++ {
		for _, p := range m.EPC.PagesOf(r.Slot(slot).EID) {
			ppns = append(ppns, uint64(m.EPC.AddrOf(p))>>isa.PageShift)
		}
	}
	ppns = append(ppns,
		0x0010_0000>>isa.PageShift, // unsecure frame
		0x0070_0000>>isa.PageShift, // spare non-PRM frame
		(2<<20)>>isa.PageShift+900, // PRM frame without a valid EPCM entry
		0,
	)

	f.Add(uint8(1), uint8(0), uint8(0), uint8(7), uint8(3), uint16(0))
	f.Add(uint8(3), uint8(0), uint8(1), uint8(3), uint8(3), uint16(64))
	f.Add(uint8(0), uint8(12), uint8(12), uint8(7), uint8(2), uint16(8))
	f.Add(uint8(2), uint8(6), uint8(6), uint8(5), uint8(1), uint16(4095))

	f.Fuzz(func(t *testing.T, coreSel, vSel, pSel, permBits, flags uint8, off uint16) {
		coreID := int(coreSel) % 4
		v := vaddrs[int(vSel)%len(vaddrs)] + isa.VAddr(off)%isa.PageSize
		pte := pt.PTE{
			PPN:     ppns[int(pSel)%len(ppns)],
			Perms:   isa.Perm(permBits) & isa.PermRWX,
			Present: flags&1 != 0,
		}
		mapped := flags&2 != 0
		op := []isa.Access{isa.Read, isa.Write, isa.Execute}[int(flags>>2)%3]

		// Machine side: mirror the translate pre-checks (walk, present), then
		// ask the installed validator.
		var got model.Verdict
		var gotEntry model.TLBEntry
		switch {
		case !mapped || !pte.Present:
			got = model.VPF
		default:
			entry, verdict := m.Validator.Validate(m.Core(coreID), v, pte, op)
			switch {
			case verdict.Path == sgx.PathBaseline || verdict.Path == sgx.PathOuter:
				got = model.VOK
				gotEntry = model.TLBEntry{PPN: entry.PPN, Perms: entry.Perms}
			case verdict.Path == sgx.PathAbort:
				got = model.VAbort
			case verdict.Fault.Class == isa.FaultPF:
				got = model.VPF
			case verdict.Fault.Class == isa.FaultGP:
				got = model.VGP
			default:
				t.Fatalf("validator returned unclassifiable verdict %+v", verdict)
			}
		}

		want, wantEntry := o.Validate(coreID, uint64(v),
			model.PTE{Mapped: mapped, Present: pte.Present, PPN: pte.PPN, Perms: pte.Perms}, op)
		if got != want {
			t.Fatalf("core %d %v %#x pte{ppn %#x perms %v present %v mapped %v}: machine %v, oracle %v",
				coreID, op, uint64(v), pte.PPN, pte.Perms, pte.Present, mapped, got, want)
		}
		if got == model.VOK && (gotEntry.PPN != wantEntry.PPN || gotEntry.Perms != wantEntry.Perms) {
			t.Fatalf("core %d %v %#x: machine fills ppn %#x perms %v, oracle ppn %#x perms %v",
				coreID, op, uint64(v), gotEntry.PPN, gotEntry.Perms, wantEntry.PPN, wantEntry.Perms)
		}
	})
}

// FuzzReportParse fuzzes the REPORT wire codec: the decoder must accept
// exactly ReportSize-byte strings, Parse∘Encode must be the identity on them,
// and a parsed-then-reencoded report must round-trip field-for-field — so the
// MAC a verifier checks covers precisely the bytes the sender emitted.
func FuzzReportParse(f *testing.F) {
	valid := &sgx.Report{Attributes: 0x1234}
	copy(valid.MRENCLAVE[:], bytes.Repeat([]byte{0xaa}, 32))
	copy(valid.ReportData[:], []byte("channel-binding nonce"))
	enc := valid.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(append(append([]byte{}, enc...), 0x00))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, sgx.ReportSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := sgx.ParseReport(data)
		if len(data) != sgx.ReportSize {
			if err == nil {
				t.Fatalf("parsed %d bytes, want exactly-%d-byte strictness", len(data), sgx.ReportSize)
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected a %d-byte report: %v", sgx.ReportSize, err)
		}
		re := r.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("Parse∘Encode not identity:\n in  %x\n out %x", data, re)
		}
		r2, err := sgx.ParseReport(re)
		if err != nil || *r2 != *r {
			t.Fatalf("re-parse mismatch (err=%v)", err)
		}
	})
}
