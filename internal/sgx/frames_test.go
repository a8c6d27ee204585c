package sgx_test

import (
	"errors"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

// Tests of the suspended frames the TCS keeps (NEENTER's saved outer
// context and AEX's state-save area) and of the core's demand-fault record.

// TestNEEXITRefusesDestroyedOuter: an inner runs NEENTERed from its outer
// and is AEXed, so no core is in enclave mode and the kernel driver's
// teardown of the outer is accepted. ERESUME of the inner is accepted too,
// since the inner is live, but the NEEXIT that follows must not return into
// the destroyed outer: it raises #GP and leaves the core, and the frame, as
// they were, for the runtime to evacuate the core.
func TestNEEXITRefusesDestroyedOuter(t *testing.T) {
	r := newRig(t)
	outer, outerTCSV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	inner, innerTCSV := buildEnclave(t, r.k, r.p, 0x200000, 1)
	innerTCS, err := inner.FindTCS(innerTCSV)
	if err != nil {
		t.Fatal(err)
	}
	sgx.Link(r.m, inner, outer)
	r.enter(t, outer, outerTCSV)
	if err := r.m.NEENTER(r.c, inner, innerTCSV); err != nil {
		t.Fatal(err)
	}
	if err := r.m.AEX(r.c); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Driver.DestroyEnclave(r.p, outer); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EResume(r.c, innerTCS); err != nil {
		t.Fatalf("ERESUME of the live inner: %v", err)
	}
	if err := r.m.NEEXIT(r.c); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("NEEXIT into a destroyed outer: %v, want #GP (core now in %v)", err, r.c.Current())
	}
	if r.c.Current() != inner || !innerTCS.Busy || innerTCS.RetFrameEID() != outer.EID {
		t.Fatalf("refused NEEXIT moved the core to %v (TCS busy %v, frame of %d)", r.c.Current(), innerTCS.Busy, innerTCS.RetFrameEID())
	}
	if torn := r.m.EmergencyExit(r.c); len(torn) != 2 || torn[0] != inner.EID || torn[1] != outer.EID {
		t.Fatalf("evacuation tore down %v, want the inner then the outer", torn)
	}
	if innerTCS.Busy || innerTCS.Ret() {
		t.Fatal("evacuation left the inner's TCS claimed")
	}
	if v := r.m.AuditInvariants(); len(v) != 0 {
		t.Fatalf("invariants after evacuation: %v", v)
	}
	r.enter(t, inner, innerTCSV) // the inner stays usable
	r.exit(t)
}

// TestTransitionsAllocateNothing pins the host cost of the frames the TCS
// keeps: a NEENTER/NEEXIT round trip and an AEX/ERESUME round trip, nested
// or not, allocate nothing. Not parallel: it reads the process-wide
// allocation counter.
func TestTransitionsAllocateNothing(t *testing.T) {
	r := newRig(t)
	outer, outerTCSV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	inner, innerTCSV := buildEnclave(t, r.k, r.p, 0x200000, 1)
	innerTCS, err := inner.FindTCS(innerTCSV)
	if err != nil {
		t.Fatal(err)
	}
	outerTCS, err := outer.FindTCS(outerTCSV)
	if err != nil {
		t.Fatal(err)
	}
	sgx.Link(r.m, inner, outer)
	r.enter(t, outer, outerTCSV)
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"NEENTER+NEEXIT", func() {
			check(r.m.NEENTER(r.c, inner, innerTCSV))
			check(r.m.NEEXIT(r.c))
		}},
		{"AEX+ERESUME", func() {
			check(r.m.AEX(r.c))
			check(r.m.EResume(r.c, outerTCS))
		}},
		{"nested AEX+ERESUME", func() {
			check(r.m.NEENTER(r.c, inner, innerTCSV))
			check(r.m.AEX(r.c))
			check(r.m.EResume(r.c, innerTCS))
			check(r.m.NEEXIT(r.c))
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s allocates %.0f times, want 0", c.name, n)
		}
		if failed != nil {
			t.Fatalf("%s: %v", c.name, failed)
		}
	}
	if r.c.Current() != outer || outerTCS.Ret() || innerTCS.Busy {
		t.Fatal("round trips did not return to the outer")
	}
	r.exit(t)
}

// TestEscapedPageFaultKeepsItsAddress: a demand #PF the kernel cannot
// repair escapes as the caller's own copy of the core's fault record, so a
// later fault on the same core changes neither its address nor its reason.
func TestEscapedPageFaultKeepsItsAddress(t *testing.T) {
	r := newRig(t)
	v, err := r.p.Mmap(2*isa.PageSize, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	w := v + isa.PageSize
	r.p.PageTable().MarkNotPresent(v)
	r.p.PageTable().MarkNotPresent(w)
	var dst [8]byte
	first := r.c.ReadInto(v, dst[:])
	second := r.c.Write(w+8, dst[:])
	var f1, f2 *isa.Fault
	if !errors.As(first, &f1) || !errors.As(second, &f2) {
		t.Fatalf("faults %v and %v, want two #PFs", first, second)
	}
	if f1 == f2 {
		t.Fatal("two escaped faults share one record")
	}
	if f1.Class != isa.FaultPF || f1.Addr != v || f1.Op != isa.Read || f1.Reason != "not present" {
		t.Fatalf("first fault now %+v, want a read #PF at %#x, not present", *f1, uint64(v))
	}
	if f2.Class != isa.FaultPF || f2.Addr != w+8 || f2.Op != isa.Write || f2.Reason != "not present" {
		t.Fatalf("second fault %+v, want a write #PF at %#x, not present", *f2, uint64(w+8))
	}
}
