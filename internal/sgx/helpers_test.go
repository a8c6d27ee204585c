package sgx_test

import (
	"strings"
	"testing"

	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

// Direct tests of the nested transitions' machine state, and of small
// accessors.

func TestNestedInfoHelpers(t *testing.T) {
	var n sgx.NestedInfo
	if n.IsInner() || n.IsOuter() {
		t.Fatal("zero NestedInfo misreports")
	}
	n.OuterEIDs = []isa.EID{7}
	n.InnerEIDs = []isa.EID{3, 4}
	if !n.IsInner() || !n.IsOuter() {
		t.Fatal("populated NestedInfo misreports")
	}
	if !n.HasOuter(7) || n.HasOuter(8) || !n.HasInner(3) || n.HasInner(7) {
		t.Fatal("Has* lookups wrong")
	}
}

func TestSwitchToFromNestedLocked(t *testing.T) {
	r := newRig(t)
	outer, outerTCSV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	inner, innerTCSV := buildEnclave(t, r.k, r.p, 0x200000, 1)
	innerTCS, err := inner.FindTCS(innerTCSV)
	if err != nil {
		t.Fatal(err)
	}
	sgx.Link(r.m, inner, outer)
	r.enter(t, outer, outerTCSV)
	r.c.Regs.GPR[0] = 111
	if err := r.m.NEENTER(r.c, inner, innerTCSV); err != nil {
		t.Fatal(err)
	}
	if r.c.Current() != inner || !innerTCS.Busy || !innerTCS.Ret() {
		t.Fatal("switch-to state wrong")
	}
	if r.c.NestingDepth() != 2 {
		t.Fatalf("depth %d", r.c.NestingDepth())
	}
	if innerTCS.RetFrameEID() != outer.EID {
		t.Fatalf("ret frame EID %d", innerTCS.RetFrameEID())
	}
	if got := r.c.ExecutingEIDs(); len(got) != 2 || got[0] != inner.EID || got[1] != outer.EID {
		t.Fatalf("executing EIDs %v", got)
	}
	r.c.Regs.GPR[0] = 222 // inner-enclave register state
	if err := r.m.NEEXIT(r.c); err != nil {
		t.Fatal(err)
	}
	if r.c.Current() != outer || innerTCS.Busy || innerTCS.Ret() {
		t.Fatal("switch-from state wrong")
	}
	if r.c.Regs.GPR[0] != 111 {
		t.Fatalf("outer registers not restored: %d", r.c.Regs.GPR[0])
	}
	r.exit(t)
}

// TestEPCFootprintAndEnclaves reads one enclave's footprint through the
// kernel's read window: EPCPagesOf lists its five pages with the SECS last,
// EPCMEntry copies each page's EPCM entry, and Enclave resolves it.
func TestEPCFootprintAndEnclaves(t *testing.T) {
	r := newRig(t)
	s, _ := buildEnclave(t, r.k, r.p, 0x100000, 3)
	pages := r.m.EPCPagesOf(s.EID)
	if len(pages) != 5 { // 3 data + 1 TCS + SECS
		t.Fatalf("footprint %d", len(pages))
	}
	layout := r.m.DRAM.Layout()
	for i, p := range pages {
		ent, ok := r.m.EPCMEntry(epc.PageAddr(layout, p) + 17)
		if !ok || !ent.Valid || ent.Owner != s.EID {
			t.Fatalf("page %d: EPCM entry %+v, %v", p, ent, ok)
		}
		if last := i == len(pages)-1; last != (ent.Type == isa.PTSECS) {
			t.Fatalf("page %d of %d has type %v: the SECS must come last", i, len(pages), ent.Type)
		}
	}
	if _, ok := r.m.EPCMEntry(layout.PRMBase - isa.PageSize); ok {
		t.Fatal("EPCMEntry resolved a frame below the EPC")
	}
	if got, ok := r.m.Enclave(s.EID); !ok || got != s {
		t.Fatal("Enclave missed the enclave")
	}
	if s.String() == "" || !strings.Contains(s.String(), "eid") {
		t.Fatalf("SECS stringer: %q", s.String())
	}
	if len(s.TCSs()) != 1 {
		t.Fatalf("TCSs %d", len(s.TCSs()))
	}
}

func TestReadWriteU64(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	const v = 0x1122_3344_5566_7788
	if err := r.c.WriteU64(0x100010, v); err != nil {
		t.Fatal(err)
	}
	got, err := r.c.ReadU64(0x100010)
	if err != nil || got != v {
		t.Fatalf("u64 round trip: %#x %v", got, err)
	}
	r.exit(t)
}

func TestDefaultConfigBoots(t *testing.T) {
	m := sgx.MustNew(sgx.DefaultConfig())
	if len(m.Cores()) != 4 {
		t.Fatalf("cores %d", len(m.Cores()))
	}
	if m.Core(0).Machine() != m {
		t.Fatal("core back-pointer")
	}
	if _, ok := m.Enclave(999); ok {
		t.Fatal("phantom enclave resolved")
	}
	if got := sgx.DefaultConfig().Nesting; got != sgx.TwoLevel() {
		t.Fatalf("default nesting model %+v, want the paper's two levels", got)
	}
	if _, err := sgx.New(sgx.Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}
