package core_test

import (
	"bytes"
	"testing"

	"nestedenclave/internal/core"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

// buildRaw constructs an enclave through the raw driver path (no SDK): two RW
// data pages and two TCSs. Every enclave built this way has the identical
// layout and content, hence the identical measurement — so a single
// certificate listing that one digest as both allowed-inner and allowed-outer
// satisfies the NASSO certificate checks for any pairing, leaving the table
// free to probe the structural and access rules in isolation.
func buildRaw(t *testing.T, r *rig, base isa.VAddr) *sgx.SECS {
	t.Helper()
	const nData, nTCS = 2, 2
	size := uint64(nData+nTCS) * isa.PageSize
	p := r.k.NewProcess()
	s, err := r.k.Driver.CreateEnclave(base, size, 0)
	if err != nil {
		t.Fatalf("ECREATE: %v", err)
	}
	b := measure.NewBuilder()
	b.ECreate(size, 0)
	content := bytes.Repeat([]byte{0x5a}, isa.PageSize)
	for i := 0; i < nData; i++ {
		v := base + isa.VAddr(i)*isa.PageSize
		if err := r.k.Driver.AddPage(p, s, sgx.AddPageArgs{
			Vaddr: v, Type: isa.PTReg, Perms: isa.PermRW, Content: content, Measure: true,
		}); err != nil {
			t.Fatalf("EADD: %v", err)
		}
		b.EAdd(uint64(v-base), isa.PTReg, isa.PermRW)
		for ch := 0; ch < isa.PageSize; ch += isa.ExtendChunk {
			b.EExtend(uint64(v-base)+uint64(ch), content[ch:ch+isa.ExtendChunk])
		}
	}
	for k := 0; k < nTCS; k++ {
		v := base + isa.VAddr(nData+k)*isa.PageSize
		if err := r.k.Driver.AddPage(p, s, sgx.AddPageArgs{Vaddr: v, Type: isa.PTTCS, Entry: k}); err != nil {
			t.Fatalf("EADD tcs: %v", err)
		}
		b.EAdd(uint64(v-base), isa.PTTCS, 0)
	}
	d := b.Finalize()
	author := measure.MustNewAuthor()
	if err := r.k.Driver.InitEnclave(s, author.Sign(d, []measure.Digest{d}, []measure.Digest{d})); err != nil {
		t.Fatalf("EINIT: %v", err)
	}
	return s
}

func rawTCS(s *sgx.SECS, k int) isa.VAddr { return s.Base + isa.VAddr(2+k)*isa.PageSize }

// TestFigure6ValidateTable drives the nested (Figure-6) validator through the
// full requester × owner × vaddr-region cross-product with fabricated PTEs:
// host, outer, NEENTERed inner, and directly-EENTERed peer inner, against
// frames owned by self, outer, a peer inner, nobody (free EPC), and plain
// DRAM, at vaddrs inside their own ELRANGE, an alias vaddr, the outer's
// ELRANGE, and unsecure space. It pins the paper's §III asymmetry: inner→
// outer is permitted (steps ③④⑤), outer→inner and peer→peer abort.
func TestFigure6ValidateTable(t *testing.T) {
	r := newRig(t, core.TwoLevel())
	m := r.m
	innerA := buildRaw(t, r, 0x1000_0000)
	outerO := buildRaw(t, r, 0x2000_0000)
	innerB := buildRaw(t, r, 0x3000_0000)
	if err := r.ext.NASSO(innerA, outerO); err != nil {
		t.Fatalf("NASSO A->O: %v", err)
	}
	if err := r.ext.NASSO(innerB, outerO); err != nil {
		t.Fatalf("NASSO B->O: %v", err)
	}

	// core 0: host. core 1: inner A entered through outer O (NEENTER).
	// core 2: outer O. core 3: peer inner B, EENTERed directly.
	if err := m.EEnter(m.Core(1), outerO, rawTCS(outerO, 0), false); err != nil {
		t.Fatalf("EENTER O: %v", err)
	}
	if err := r.ext.NEENTER(m.Core(1), innerA, rawTCS(innerA, 0)); err != nil {
		t.Fatalf("NEENTER A: %v", err)
	}
	if err := m.EEnter(m.Core(2), outerO, rawTCS(outerO, 1), false); err != nil {
		t.Fatalf("EENTER O tcs1: %v", err)
	}
	if err := m.EEnter(m.Core(3), innerB, rawTCS(innerB, 0), false); err != nil {
		t.Fatalf("EENTER B: %v", err)
	}
	host, inA, inO, inB := m.Core(0), m.Core(1), m.Core(2), m.Core(3)

	frameOf := func(s *sgx.SECS, v isa.VAddr) uint64 {
		for _, i := range m.EPC.PagesOf(s.EID) {
			if ent := m.EPC.Entry(i); ent.Vaddr == v {
				return uint64(m.EPC.AddrOf(i)) >> isa.PageShift
			}
		}
		t.Fatalf("no EPC page at %#x", uint64(v))
		return 0
	}
	aData0 := frameOf(innerA, innerA.Base)
	oData0 := frameOf(outerO, outerO.Base)
	oData1 := frameOf(outerO, outerO.Base+isa.PageSize)
	oTCS0 := frameOf(outerO, rawTCS(outerO, 0))
	bData0 := frameOf(innerB, innerB.Base)
	var plain uint64
	for ppn := uint64(1); ; ppn++ {
		if !m.DRAM.PageInPRM(isa.PAddr(ppn << isa.PageShift)) {
			plain = ppn
			break
		}
	}
	unsecV := isa.VAddr(0x0040_0000)

	type row struct {
		name  string
		c     *sgx.Core
		v     isa.VAddr
		ppn   uint64
		perms isa.Perm
		op    isa.Access
		want  string
	}
	tests := []row{
		// Host requester.
		{"host/plain DRAM ok", host, unsecV, plain, isa.PermRW, isa.Write, "ok"},
		{"host/any EPC frame aborts", host, unsecV, oData0, isa.PermRW, isa.Read, "abort"},

		// Outer requester: owns its pages, cannot see its inner's.
		{"outer/own page ok", inO, outerO.Base, oData0, isa.PermRW, isa.Write, "ok"},
		{"outer/own page EPCM strips X", inO, outerO.Base, oData0, isa.PermRWX, isa.Execute, "#PF"},
		{"outer/inner page at inner's vaddr aborts", inO, innerA.Base, aData0, isa.PermRW, isa.Read, "abort"},
		{"outer/inner page at own vaddr aborts", inO, outerO.Base, aData0, isa.PermRW, isa.Read, "abort"},
		{"outer/unsecure ok", inO, unsecV, plain, isa.PermRW, isa.Read, "ok"},

		// Inner requester via NEENTER: own pages, plus the outer's (③④⑤).
		{"inner/own page ok", inA, innerA.Base, aData0, isa.PermRW, isa.Write, "ok"},
		{"inner/outer page ok (nested branch)", inA, outerO.Base, oData0, isa.PermRW, isa.Write, "ok"},
		{"inner/outer page EPCM strips X", inA, outerO.Base, oData0, isa.PermRWX, isa.Execute, "#PF"},
		{"inner/outer frame at aliased vaddr aborts", inA, outerO.Base, oData1, isa.PermRW, isa.Read, "abort"},
		{"inner/outer frame at unsecure vaddr aborts", inA, unsecV, oData0, isa.PermRW, isa.Read, "abort"},
		{"inner/outer TCS frame aborts", inA, rawTCS(outerO, 0), oTCS0, isa.PermRW, isa.Read, "abort"},
		{"inner/peer inner page aborts", inA, innerB.Base, bData0, isa.PermRW, isa.Read, "abort"},
		{"inner/own vaddr outside PRM faults (evicted)", inA, innerA.Base, plain, isa.PermRW, isa.Read, "#PF"},
		{"inner/outer vaddr outside PRM faults (evicted)", inA, outerO.Base, plain, isa.PermRW, isa.Read, "#PF"},
		{"inner/unsecure ok", inA, unsecV, plain, isa.PermRW, isa.Read, "ok"},
		{"inner/unsecure never executable", inA, unsecV, plain, isa.PermRWX, isa.Execute, "#PF"},

		// Peer inner, entered directly from untrusted code: the association
		// alone (no outer frame on the core) grants outer access; sibling
		// inners stay mutually isolated.
		{"direct inner/own page ok", inB, innerB.Base, bData0, isa.PermRW, isa.Write, "ok"},
		{"direct inner/outer page ok", inB, outerO.Base, oData0, isa.PermRW, isa.Read, "ok"},
		{"direct inner/peer page aborts", inB, innerA.Base, aData0, isa.PermRW, isa.Read, "abort"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pte := pt.PTE{PPN: tc.ppn, Perms: tc.perms, Present: true}
			entry, verdict := m.Validator.Validate(tc.c, tc.v, pte, tc.op)
			if got := verdictOf(verdict); got != tc.want {
				t.Fatalf("got %s, want %s (verdict %+v)", got, tc.want, verdict)
			}
			if tc.want == "ok" {
				if entry.PPN != tc.ppn {
					t.Fatalf("fills ppn %#x, want %#x", entry.PPN, tc.ppn)
				}
				if entry.Perms&isa.PermX != 0 && tc.ppn == plain {
					t.Fatalf("unsecure fill kept execute permission")
				}
			}
		})
	}

	// Blocked outer page: the inner's nested access faults (not aborts) so
	// the kernel can repair and retry. Runs last — EBLOCK mutates the EPCM.
	var oIdx = -1
	for _, i := range m.EPC.PagesOf(outerO.EID) {
		if ent := m.EPC.Entry(i); ent.Vaddr == outerO.Base && ent.Type == isa.PTReg {
			oIdx = i
		}
	}
	if err := m.EBlock(oIdx); err != nil {
		t.Fatalf("EBLOCK: %v", err)
	}
	_, verdict := m.Validator.Validate(inA, outerO.Base, pt.PTE{PPN: oData0, Perms: isa.PermRW, Present: true}, isa.Read)
	if got := verdictOf(verdict); got != "#PF" {
		t.Fatalf("inner access to blocked outer page: got %s, want #PF", got)
	}
}

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

// TestOneFlowWithOrWithoutEnable builds the same enclave on two machines,
// one with core.Enable and one without, and runs the same accesses through
// each machine's installed validator. Both run the one Figure-6 flow, so
// each access must return the same verdict and TLB entry and charge the
// same validation steps on both — the cycles a machine charges for a walk
// do not depend on whether the nesting instructions are enabled.
func TestOneFlowWithOrWithoutEnable(t *testing.T) {
	base := isa.VAddr(0x1000_0000)
	nested := newRig(t, core.TwoLevel())
	m := sgx.MustNew(sgx.SmallConfig())
	plainSGX := &rig{m: m, k: kos.New(m)}

	type access struct {
		name  string
		v     isa.VAddr
		page  int // the enclave's data page to map; -1 maps plain DRAM
		want  string
		steps int64
	}
	accesses := []access{
		{"own page read", base, 0, "ok", 4},
		{"EPC page at the wrong vaddr", base, 1, "abort", 4},
		{"evicted ELRANGE page", base, -1, "#PF", 3},
		{"unsecure read", 0x0040_0000, -1, "ok", 3},
	}
	type outcome struct {
		verdict string
		fault   string
		entry   tlb.Entry
		steps   int64
	}
	run := func(r *rig) []outcome {
		s := buildRaw(t, r, base)
		c := r.m.Core(1)
		if err := r.m.EEnter(c, s, rawTCS(s, 0), false); err != nil {
			t.Fatalf("EENTER: %v", err)
		}
		plain := uint64(0x0010_0000) >> isa.PageShift // DRAM below the PRM
		var out []outcome
		for _, a := range accesses {
			ppn := plain
			if a.page >= 0 {
				for _, i := range r.m.EPC.PagesOf(s.EID) {
					if ent := r.m.EPC.Entry(i); ent.Vaddr == base+isa.VAddr(a.page)*isa.PageSize {
						ppn = uint64(r.m.EPC.AddrOf(i)) >> isa.PageShift
					}
				}
			}
			before := r.m.Rec.Get(trace.EvValidateStep)
			entry, verdict := r.m.Validator.Validate(c, a.v, pt.PTE{PPN: ppn, Perms: isa.PermRW, Present: true}, isa.Read)
			o := outcome{verdict: verdictOf(verdict), entry: entry, steps: r.m.Rec.Get(trace.EvValidateStep) - before}
			if verdict.Fault != nil {
				o.fault = verdict.Fault.Error()
			}
			out = append(out, o)
		}
		return out
	}
	with, without := run(nested), run(plainSGX)
	for i, a := range accesses {
		if with[i] != without[i] {
			t.Errorf("%s: with core.Enable %+v, without %+v", a.name, with[i], without[i])
		}
		if with[i].verdict != a.want || with[i].steps != a.steps {
			t.Errorf("%s: got %s in %d steps, want %s in %d", a.name, with[i].verdict, with[i].steps, a.want, a.steps)
		}
	}
}
