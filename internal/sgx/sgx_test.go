package sgx_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nestedenclave/internal/cache"
	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/mee"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

// buildEnclave constructs a minimal enclave by hand: nData RW data pages and
// one TCS, measured, signed and initialized — the low-level path the SDK
// automates.
func buildEnclave(t *testing.T, k *kos.Kernel, p *kos.Process, base isa.VAddr, nData int) (*sgx.SECS, isa.VAddr) {
	t.Helper()
	size := uint64(nData+1) * isa.PageSize
	s, err := k.Driver.CreateEnclave(base, size, 0)
	if err != nil {
		t.Fatalf("ECREATE: %v", err)
	}
	b := measure.NewBuilder()
	b.ECreate(size, 0)
	content := bytes.Repeat([]byte{0x5a}, isa.PageSize)
	for i := 0; i < nData; i++ {
		v := base + isa.VAddr(i)*isa.PageSize
		if err := k.Driver.AddPage(p, s, sgx.AddPageArgs{
			Vaddr: v, Type: isa.PTReg, Perms: isa.PermRW, Content: content, Measure: true,
		}); err != nil {
			t.Fatalf("EADD data %d: %v", i, err)
		}
		b.EAdd(uint64(v-base), isa.PTReg, isa.PermRW)
		for ch := 0; ch < isa.PageSize; ch += isa.ExtendChunk {
			b.EExtend(uint64(v-base)+uint64(ch), content[ch:ch+isa.ExtendChunk])
		}
	}
	tcsV := base + isa.VAddr(nData)*isa.PageSize
	if err := k.Driver.AddPage(p, s, sgx.AddPageArgs{Vaddr: tcsV, Type: isa.PTTCS}); err != nil {
		t.Fatalf("EADD tcs: %v", err)
	}
	b.EAdd(uint64(tcsV-base), isa.PTTCS, 0)
	author := measure.MustNewAuthor()
	cert := author.Sign(b.Finalize(), nil, nil)
	if err := k.Driver.InitEnclave(s, cert); err != nil {
		t.Fatalf("EINIT: %v", err)
	}
	return s, tcsV
}

type rig struct {
	m *sgx.Machine
	k *kos.Kernel
	p *kos.Process
	c *sgx.Core
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := sgx.MustNew(sgx.SmallConfig())
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	return &rig{m: m, k: k, p: p, c: c}
}

func (r *rig) enter(t *testing.T, s *sgx.SECS, tcsV isa.VAddr) {
	t.Helper()
	if err := r.m.EEnter(r.c, s, tcsV, false); err != nil {
		t.Fatalf("EENTER: %v", err)
	}
}

func (r *rig) exit(t *testing.T) {
	t.Helper()
	if err := r.m.EExit(r.c, true); err != nil {
		t.Fatalf("EEXIT: %v", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	r := newRig(t)
	// Misaligned ELRANGE.
	if _, err := r.m.ECreate(0x1001, isa.PageSize, 0); err == nil {
		t.Error("misaligned base accepted")
	}
	if _, err := r.m.ECreate(0x1000, 100, 0); err == nil {
		t.Error("misaligned size accepted")
	}
	s, err := r.m.ECreate(0x10000, 2*isa.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// EADD outside ELRANGE.
	if _, err := r.m.EAdd(s, sgx.AddPageArgs{Vaddr: 0x90000, Type: isa.PTReg, Perms: isa.PermRW}); err == nil {
		t.Error("EADD outside ELRANGE accepted")
	}
	// Misaligned EADD.
	if _, err := r.m.EAdd(s, sgx.AddPageArgs{Vaddr: 0x10008, Type: isa.PTReg, Perms: isa.PermRW}); err == nil {
		t.Error("misaligned EADD accepted")
	}
	// Oversized content.
	if _, err := r.m.EAdd(s, sgx.AddPageArgs{Vaddr: 0x10000, Type: isa.PTReg, Perms: isa.PermRW, Content: make([]byte, isa.PageSize+1)}); err == nil {
		t.Error("oversized content accepted")
	}
	// SECS page type not addable.
	if _, err := r.m.EAdd(s, sgx.AddPageArgs{Vaddr: 0x10000, Type: isa.PTSECS}); err == nil {
		t.Error("EADD of PT_SECS accepted")
	}
	// EINIT without certificate.
	if err := r.m.EInit(s, nil); err == nil {
		t.Error("EINIT without SIGSTRUCT accepted")
	}
	// EINIT with a certificate for a different measurement.
	author := measure.MustNewAuthor()
	var wrong measure.Digest
	wrong[0] = 0xEE
	if err := r.m.EInit(s, author.Sign(wrong, nil, nil)); err == nil {
		t.Error("EINIT with wrong measurement accepted")
	}
	if !strings.Contains(r.m.EInit(s, author.Sign(wrong, nil, nil)).Error(), "measurement mismatch") {
		t.Error("wrong error for measurement mismatch")
	}
}

func TestEINITMeasurementMatchesAndDoubleInitRejected(t *testing.T) {
	r := newRig(t)
	s, _ := buildEnclave(t, r.k, r.p, 0x100000, 1)
	if !s.Initialized || s.MRENCLAVE.IsZero() || s.MRSIGNER.IsZero() {
		t.Fatal("enclave not properly initialized")
	}
	if err := r.m.EInit(s, s.Cert); err == nil {
		t.Fatal("double EINIT accepted")
	}
}

func TestEnclaveReadWriteAndTamper(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 2)
	r.enter(t, s, tcsV)
	data := []byte("enclave-resident secret")
	if err := r.c.Write(0x100010, data); err != nil {
		t.Fatalf("enclave write: %v", err)
	}
	got, err := r.c.Read(0x100010, len(data))
	if err != nil {
		t.Fatalf("enclave read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
	// Initial page content (0x5a fill) is visible where not overwritten.
	got2, _ := r.c.Read(0x100800, 4)
	if !bytes.Equal(got2, []byte{0x5a, 0x5a, 0x5a, 0x5a}) {
		t.Fatalf("initial content = %v", got2)
	}
	r.exit(t)

	// Physical tamper of the EPC page is detected as #MC on next access.
	if err := sgx.LLCOf(r.m).FlushAll(trace.NoPayer); err != nil {
		t.Fatal(err)
	}
	pa, ok := r.p.PageTable().Translate(0x100010)
	if !ok {
		t.Fatal("no translation")
	}
	r.m.DRAM.TamperByte(pa, 0x80)
	r.enter(t, s, tcsV)
	_, err = r.c.Read(0x100010, len(data))
	if !isa.IsFault(err, isa.FaultMC) {
		t.Fatalf("tampered read returned %v, want #MC", err)
	}
	r.exit(t)
}

func TestTCSStateMachine(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	// Re-entering a busy TCS from another core fails.
	c2 := r.m.Core(1)
	if err := r.k.Schedule(c2, r.p); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EEnter(c2, s, tcsV, false); err == nil {
		t.Fatal("EENTER into busy TCS accepted")
	}
	// Double-enter on the same core fails (already in enclave mode).
	if err := r.m.EEnter(r.c, s, tcsV, false); err == nil {
		t.Fatal("EENTER while in enclave mode accepted")
	}
	r.exit(t)
	// EEXIT out of enclave mode fails.
	if err := r.m.EExit(r.c, true); err == nil {
		t.Fatal("EEXIT outside enclave accepted")
	}
	// Resume into an idle TCS fails.
	if err := r.m.EEnter(r.c, s, tcsV, true); err == nil {
		t.Fatal("resume into idle TCS accepted")
	}
	// Entering an uninitialized enclave fails.
	s2, err := r.m.ECreate(0x900000, isa.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.EEnter(r.c, s2, 0x900000, false); err == nil {
		t.Fatal("EENTER into uninitialized enclave accepted")
	}
}

func TestOCallKeepsTCSBusy(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	if err := r.m.EExit(r.c, false); err != nil { // ocall-style exit
		t.Fatal(err)
	}
	// TCS stays claimed: a fresh EENTER by another thread must fail...
	c2 := r.m.Core(1)
	if err := r.k.Schedule(c2, r.p); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EEnter(c2, s, tcsV, false); err == nil {
		t.Fatal("TCS stolen during ocall window")
	}
	// ...while the owner resumes fine.
	if err := r.m.EEnter(r.c, s, tcsV, true); err != nil {
		t.Fatalf("resume: %v", err)
	}
	r.exit(t)
}

func TestAEXAndERESUME(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	r.c.Regs.GPR[3] = 0x1234
	tcs, err := s.FindTCS(tcsV)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.AEX(r.c); err != nil {
		t.Fatal(err)
	}
	if r.c.InEnclave() {
		t.Fatal("core still in enclave after AEX")
	}
	if !r.c.Regs.IsZero() {
		t.Fatal("AEX leaked registers to the exception handler")
	}
	if err := r.m.EResume(r.c, tcs); err != nil {
		t.Fatal(err)
	}
	if !r.c.InEnclave() || r.c.Regs.GPR[3] != 0x1234 {
		t.Fatal("ERESUME did not restore context")
	}
	r.exit(t)
	// ERESUME without saved state fails.
	if err := r.m.EResume(r.c, tcs); err == nil {
		t.Fatal("ERESUME without SSA accepted")
	}
	// AEX outside enclave fails.
	if err := r.m.AEX(r.c); err == nil {
		t.Fatal("AEX outside enclave accepted")
	}
}

func TestKernelAliasAttackAborted(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 2)
	sVictim, tcsV2 := buildEnclave(t, r.k, r.p, 0x200000, 1)

	// Victim enclave stores a secret.
	if err := r.m.EEnter(r.c, sVictim, tcsV2, false); err != nil {
		t.Fatal(err)
	}
	secret := []byte("victim-enclave-secret")
	if err := r.c.Write(0x200000, secret); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EExit(r.c, true); err != nil {
		t.Fatal(err)
	}

	// Malicious kernel remaps the attacker enclave's page onto the victim's
	// EPC frame.
	victimPA, _ := r.p.PageTable().Translate(0x200000)
	r.p.MapFixed(0x100000, victimPA.PageBase(), isa.PermRW)

	r.enter(t, s, tcsV)
	got, err := r.c.Read(0x100000, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(got, secret[:8]) {
		t.Fatal("EPCM owner check bypassed: alias attack leaked data")
	}
	r.exit(t)

	// Kernel also tries remapping the victim page at a *different* vaddr
	// inside the attacker's own ELRANGE — the EPCM vaddr check kills it too.
	r.p.MapFixed(0x101000, victimPA.PageBase(), isa.PermRW)
	r.enter(t, s, tcsV)
	got, err = r.c.Read(0x101000, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("vaddr-mismatch access not aborted: %v", got)
		}
	}
	r.exit(t)
}

func TestVaddrAliasWithinOwnEnclaveAborted(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 2)
	// Kernel aliases page 1's frame at page 0's vaddr: EPCM says frame
	// belongs at 0x101000, so an access via 0x100000 must abort.
	pa1, _ := r.p.PageTable().Translate(0x101000)
	r.p.MapFixed(0x100000, pa1.PageBase(), isa.PermRW)
	r.enter(t, s, tcsV)
	got, err := r.c.Read(0x100000, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("aliased EPC access not aborted: %v", got)
		}
	}
	r.exit(t)
}

func TestNoExecuteFromUnsecureMemory(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	// Host maps ordinary memory as executable.
	uv, err := r.p.Mmap(isa.PageSize, isa.PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	// Outside an enclave, fetching it works.
	if err := r.c.Fetch(uv); err != nil {
		t.Fatalf("non-enclave fetch: %v", err)
	}
	// Inside, the X permission is stripped.
	r.enter(t, s, tcsV)
	if err := r.c.Fetch(uv); err == nil {
		t.Fatal("enclave executed unsecure memory")
	}
	// But data reads of unsecure memory from the enclave are fine.
	if _, err := r.c.Read(uv, 8); err != nil {
		t.Fatalf("enclave read of unsecure memory: %v", err)
	}
	r.exit(t)
}

func TestSECSAndTCSPagesInaccessible(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	// The TCS page is mapped in the process but EPCM type PT_TCS blocks
	// software access even for the owner.
	got, err := r.c.Read(tcsV, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("TCS page readable by software: %v", got)
		}
	}
	r.exit(t)
}

func TestReportAndKeys(t *testing.T) {
	r := newRig(t)
	s1, t1 := buildEnclave(t, r.k, r.p, 0x100000, 1)
	// A different page count gives s2 a distinct MRENCLAVE; two identical
	// builds would measure identically (and rightly share report keys).
	s2, t2 := buildEnclave(t, r.k, r.p, 0x200000, 2)
	if s1.MRENCLAVE == s2.MRENCLAVE {
		t.Fatal("distinct enclaves measured identically")
	}

	// s1 reports to s2.
	r.enter(t, s1, t1)
	var data [64]byte
	copy(data[:], "nonce")
	rep, err := r.m.EReport(r.c, s2.MRENCLAVE, data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MRENCLAVE != s1.MRENCLAVE {
		t.Fatal("report misattributes the caller")
	}
	// s1 cannot verify a report addressed to s2.
	if err := r.m.VerifyReport(r.c, rep); err == nil {
		t.Fatal("wrong target verified a report")
	}
	r.exit(t)

	r.enter(t, s2, t2)
	if err := r.m.VerifyReport(r.c, rep); err != nil {
		t.Fatalf("target verify: %v", err)
	}
	// Tampered report data fails.
	rep.ReportData[0] ^= 1
	if err := r.m.VerifyReport(r.c, rep); err == nil {
		t.Fatal("tampered report verified")
	}
	rep.ReportData[0] ^= 1

	// Sealing keys separate by identity.
	k2, err := r.m.EGetKey(r.c, measure.KeySeal, sgx.SealToEnclave, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.exit(t)
	r.enter(t, s1, t1)
	k1, err := r.m.EGetKey(r.c, measure.KeySeal, sgx.SealToEnclave, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.exit(t)
	if k1 == k2 {
		t.Fatal("different enclaves derived the same sealing key")
	}
	// EREPORT/EGETKEY require enclave mode.
	if _, err := r.m.EReport(r.c, s2.MRENCLAVE, data); err == nil {
		t.Fatal("EREPORT outside enclave accepted")
	}
	if _, err := r.m.EGetKey(r.c, measure.KeySeal, sgx.SealToEnclave, nil); err == nil {
		t.Fatal("EGETKEY outside enclave accepted")
	}
}

// TestNoMachineMethodHandsOutAMAC pins that untrusted code cannot obtain a
// report MAC: no exported Machine method returns a [32]byte, so a MAC comes
// only from EREPORT or NEREPORT run by the reporting enclave. A method that
// MACed caller-supplied bytes under any enclave's report key let host code
// forge an EREPORT its target accepted, and a nested report the quoting
// service signed.
func TestNoMachineMethodHandsOutAMAC(t *testing.T) {
	mac := reflect.TypeOf([32]byte{})
	machine := reflect.TypeOf(&sgx.Machine{})
	for i := 0; i < machine.NumMethod(); i++ {
		m := machine.Method(i)
		for j := 0; j < m.Type.NumOut(); j++ {
			if m.Type.Out(j) == mac {
				t.Errorf("Machine.%s returns a [32]byte", m.Name)
			}
		}
	}
}

// machineInstructions is the machine's instruction set: SGX's lifecycle,
// entry/exit, paging and attestation instructions, Table I's four nested
// ones, and the kernel's CR3 load and single-translation INVLPG.
var machineInstructions = []string{
	"ECreate", "EAdd", "EAug", "EInit", "ERemove", "NASSO",
	"EEnter", "EExit", "AEX", "EResume", "NEENTER", "NEEXIT",
	"EBlock", "ETrack", "EWB", "ELDU",
	"EReport", "NEREPORT", "EGetKey",
	"LoadCR3", "INVLPG",
}

// machineNamedList is every other exported Machine method, each with the
// reason it is exported.
var machineNamedList = map[string]string{
	"Core":               "the kernel, the SDK and the harnesses pick the core an instruction runs on",
	"Cores":              "the kernel installs its page-fault handler on every core",
	"Enclave":            "the paging daemon resolves a victim's owner from its EPCM entry",
	"SetHostile":         "installs the untrusted platform: chaos injector, adversary engine, attack scripts",
	"Hostile":            "the kernel asks the platform at each decision it makes",
	"ShootdownFor":       "the effect of the shootdown IPI the kernel sends to each core ETRACK names",
	"EvictionCandidate":  "kernel EPCM read window: the paging daemon's victim search",
	"FindRegPage":        "kernel EPCM read window: the page an eviction or a reload names",
	"FreeEPCPages":       "kernel EPCM read window: whether an allocation needs the paging daemon first",
	"EPCPagesOf":         "kernel EPCM read window: the pages an enclave's teardown EREMOVEs, SECS last",
	"EmergencyExit":      "crash containment: the machine-check cleanup of a crashed chain",
	"ScrubTCS":           "crash containment: idles a TCS a crash stranded busy",
	"PoisonEnclave":      "crash containment: the SDK marks an enclave whose trusted code crashed",
	"PoisonedReason":     "crash containment: the supervisor reads why an enclave is poisoned",
	"VerifyReport":       "report check: an enclave verifies an EREPORT addressed to it",
	"VerifyNestedReport": "report check: an enclave verifies a NEREPORT addressed to it",
	"NestedReportValid":  "report check: the quoting service checks a NEREPORT's MAC",
	"AuditInvariants":    "the §VII-A invariant audit every harness runs",
	"OuterChain":         "validator seam: a planted Figure-6 flow walks the outer closure",
	"EPCMEntry":          "validator seam: a planted Figure-6 flow reads the EPCM",
}

// TestMachineSurface pins what untrusted code can reach on a Machine: its
// exported methods are the instruction set plus the named list, its
// exported fields are DRAM (the physical attacker's), the recorder, and the
// Validator and Tracker seam, a Core's exported fields are its ID, its
// register file and the kernel's fault handler, and no exported method or
// field of any sgx type hands out the EPC allocator, an EPCM entry to write
// through, the LLC, the MEE or a core's TLB.
func TestMachineSurface(t *testing.T) {
	want := map[string]bool{}
	for _, name := range machineInstructions {
		want[name] = true
	}
	for name := range machineNamedList {
		if want[name] {
			t.Errorf("%s is both an instruction and on the named list", name)
		}
		want[name] = true
	}
	machine := reflect.TypeOf(&sgx.Machine{})
	for i := 0; i < machine.NumMethod(); i++ {
		if name := machine.Method(i).Name; !want[name] {
			t.Errorf("Machine.%s is exported but neither an instruction nor on the named list", name)
		}
		delete(want, machine.Method(i).Name)
	}
	for name := range want {
		t.Errorf("Machine.%s is pinned but missing", name)
	}

	for typ, fields := range map[reflect.Type][]string{
		machine.Elem():              {"DRAM", "Rec", "Validator", "Tracker"},
		reflect.TypeFor[sgx.Core](): {"ID", "Regs", "PFHandler"},
	} {
		var got []string
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("%s's exported fields are %v, want %v", typ.Name(), got, fields)
		}
	}

	forbidden := map[reflect.Type]bool{
		reflect.TypeFor[epc.Manager](): true, reflect.TypeFor[*epc.Manager](): true,
		reflect.TypeFor[*epc.Entry]():  true,
		reflect.TypeFor[cache.Cache](): true, reflect.TypeFor[*cache.Cache](): true,
		reflect.TypeFor[mee.Engine](): true, reflect.TypeFor[*mee.Engine](): true,
		reflect.TypeFor[tlb.TLB](): true, reflect.TypeFor[*tlb.TLB](): true,
	}
	types := []reflect.Type{
		reflect.TypeFor[sgx.AddPageArgs](), reflect.TypeFor[sgx.BaselineTracker](),
		reflect.TypeFor[sgx.BlobReplayError](), reflect.TypeFor[sgx.BroadcastTracker](),
		reflect.TypeFor[sgx.Config](), reflect.TypeFor[sgx.Core](),
		reflect.TypeFor[sgx.EvictedPage](), reflect.TypeFor[sgx.Figure6Validator](),
		reflect.TypeFor[sgx.Honest](), reflect.TypeFor[sgx.Hostile](),
		reflect.TypeFor[sgx.InnerAwareTracker](), reflect.TypeFor[sgx.Machine](),
		reflect.TypeFor[sgx.NestedInfo](), reflect.TypeFor[sgx.NestedReport](),
		reflect.TypeFor[sgx.NestingConfig](), reflect.TypeFor[sgx.Path](),
		reflect.TypeFor[sgx.Registers](), reflect.TypeFor[sgx.Report](),
		reflect.TypeFor[sgx.SECS](), reflect.TypeFor[sgx.SealPolicy](),
		reflect.TypeFor[sgx.TCS](), reflect.TypeFor[sgx.Tracker](),
		reflect.TypeFor[sgx.Validator](), reflect.TypeFor[sgx.Verdict](),
	}
	declared := declaredTypes(t)
	for _, typ := range types {
		if !declared[typ.Name()] {
			t.Errorf("sgx.%s is listed but not declared", typ.Name())
		}
		delete(declared, typ.Name())
	}
	for name := range declared {
		t.Errorf("exported type sgx.%s is not listed, so its surface goes unchecked", name)
	}
	for _, typ := range types {
		recv := typ
		if typ.Kind() != reflect.Interface {
			recv = reflect.PointerTo(typ)
		}
		for i := 0; i < recv.NumMethod(); i++ {
			// The receiver's own fields are checked below, once.
			sig, seen := recv.Method(i).Type, map[reflect.Type]bool{recv: true}
			if got := handsOut(sig, forbidden, seen); got != nil {
				t.Errorf("%s.%s hands out a %v", typ.Name(), recv.Method(i).Name, got)
			}
		}
		if typ.Kind() != reflect.Struct {
			continue
		}
		for _, f := range reflect.VisibleFields(typ) {
			if !f.IsExported() {
				continue
			}
			if got := handsOut(f.Type, forbidden, map[reflect.Type]bool{}); got != nil {
				t.Errorf("%s.%s holds a %v", typ.Name(), f.Name, got)
			}
		}
	}
}

// handsOut returns the first forbidden type reachable from typ through
// pointers, containers, function signatures, interface methods and exported
// struct fields, or nil.
func handsOut(typ reflect.Type, forbidden, seen map[reflect.Type]bool) reflect.Type {
	if forbidden[typ] {
		return typ
	}
	if seen[typ] {
		return nil
	}
	seen[typ] = true
	var next []reflect.Type
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		next = append(next, typ.Elem())
	case reflect.Map:
		next = append(next, typ.Key(), typ.Elem())
	case reflect.Func:
		for i := 0; i < typ.NumIn(); i++ {
			next = append(next, typ.In(i))
		}
		for i := 0; i < typ.NumOut(); i++ {
			next = append(next, typ.Out(i))
		}
	case reflect.Interface:
		for i := 0; i < typ.NumMethod(); i++ {
			next = append(next, typ.Method(i).Type)
		}
	case reflect.Struct:
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				next = append(next, f.Type)
			}
		}
	}
	for _, n := range next {
		if got := handsOut(n, forbidden, seen); got != nil {
			return got
		}
	}
	return nil
}

// declaredTypes returns the exported type names the package's non-test
// files declare.
func declaredTypes(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					if ts := spec.(*ast.TypeSpec); ts.Name.IsExported() {
						out[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

func TestDestroyEnclaveAndEIDReuse(t *testing.T) {
	r := newRig(t)
	s, _ := buildEnclave(t, r.k, r.p, 0x100000, 1)
	eid := s.EID
	free := sgx.EPCOf(r.m).FreePages()
	if err := r.k.Driver.DestroyEnclave(r.p, s); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.m.Enclave(eid); ok {
		t.Fatal("destroyed enclave still resolvable")
	}
	if sgx.EPCOf(r.m).FreePages() != free+3 { // 1 data + 1 TCS + 1 SECS
		t.Fatalf("EPC pages not reclaimed: %d -> %d", free, sgx.EPCOf(r.m).FreePages())
	}
	// A fresh enclave gets a fresh EID.
	s2, _ := buildEnclave(t, r.k, r.p, 0x100000, 1)
	if s2.EID == eid {
		t.Fatal("EID reused")
	}
}

func TestERemoveConstraints(t *testing.T) {
	r := newRig(t)
	s, _ := buildEnclave(t, r.k, r.p, 0x300000, 1)
	pages := sgx.EPCOf(r.m).PagesOf(s.EID)
	var secsPage = -1
	for _, p := range pages {
		if sgx.EPCOf(r.m).Entry(p).Type == isa.PTSECS {
			secsPage = p
		}
	}
	if err := r.m.ERemove(secsPage); err == nil {
		t.Fatal("SECS removed while enclave pages remain")
	}
}

// TestERemoveRefusesLivePage: enclave A runs on core 0 and has read its
// data page. EREMOVE of the page is refused while core 0's TLB maps it, and
// still after a shootdown empties that TLB, since core 0 runs A and its next
// walk would map the frame again. An ECREATE then cannot take the frame, so
// A reads its own bytes; once A exits the page goes. An EREMOVE that looked
// at no core let the ECREATE take the frame (the EPC free list is LIFO), and
// A's next read reached the new enclave's page.
func TestERemoveRefusesLivePage(t *testing.T) {
	r := newRig(t)
	a, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	page, _ := r.m.FindRegPage(a, 0x100000)
	r.enter(t, a, tcsV)
	if _, err := r.c.Read(0x100000, 8); err != nil {
		t.Fatal(err)
	}
	if err := r.m.ERemove(page); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("EREMOVE of a page core 0 maps: %v, want #GP", err)
	}
	r.m.ShootdownFor(r.c, a.EID)
	if err := r.m.ERemove(page); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("EREMOVE of a page of the enclave core 0 runs: %v, want #GP", err)
	}
	if _, err := r.k.Driver.CreateEnclave(0x300000, 2*isa.PageSize, 0); err != nil {
		t.Fatal(err)
	}
	got, err := r.c.Read(0x100000, 8)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x5a}, 8)) {
		t.Fatalf("A's page after the refused EREMOVE reads %x, %v", got, err)
	}
	if bad := r.m.AuditInvariants(); len(bad) != 0 {
		t.Fatalf("audit: %v", bad)
	}
	r.exit(t)
	if err := r.m.ERemove(page); err != nil {
		t.Fatalf("EREMOVE once A exited: %v", err)
	}
}

// TestERemoveRefusesOuterPageUnderDirectInner: an inner enclave entered
// directly with EENTER, so no outer frame is live on its core, reads its
// outer's page through the Figure-6 outer branch. EREMOVE of that outer page
// is refused while the core's TLB maps it, and after a shootdown too, since
// the core runs an inner of the page's owner. A check that asked only
// whether a core runs the owner would let the page go.
func TestERemoveRefusesOuterPageUnderDirectInner(t *testing.T) {
	r := newRig(t)
	outer, _ := buildEnclave(t, r.k, r.p, 0x100000, 1)
	inner, innerTCSV := buildEnclave(t, r.k, r.p, 0x200000, 1)
	sgx.Link(r.m, inner, outer)
	page, _ := r.m.FindRegPage(outer, 0x100000)
	r.enter(t, inner, innerTCSV)
	if _, err := r.c.Read(0x100000, 8); err != nil {
		t.Fatalf("inner read of its outer's page: %v", err)
	}
	if err := r.m.ERemove(page); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("EREMOVE of an outer page the inner maps: %v, want #GP", err)
	}
	r.m.ShootdownFor(r.c, outer.EID)
	if err := r.m.ERemove(page); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("EREMOVE of an outer page under a running inner: %v, want #GP", err)
	}
	r.exit(t)
	if err := r.m.ERemove(page); err != nil {
		t.Fatalf("EREMOVE once the inner exited: %v", err)
	}
}

// tcsPageOf returns the EPC index of enclave s's TCS page.
func tcsPageOf(t *testing.T, r *rig, s *sgx.SECS) int {
	t.Helper()
	for _, i := range sgx.EPCOf(r.m).PagesOf(s.EID) {
		if sgx.EPCOf(r.m).Entry(i).Type == isa.PTTCS {
			return i
		}
	}
	t.Fatalf("enclave %d has no TCS page", s.EID)
	return -1
}

// TestEEnterRefusesDestroyedEnclave: an inner enclave linked to an outer is
// destroyed through the kernel driver. EENTER through its old SECS and TCS
// is refused with #GP. An EENTER that checked only the SECS it was handed
// let the dead inner run and read its former outer's page through the
// Figure-6 outer branch, which follows the dead SECS's own OuterEIDs.
func TestEEnterRefusesDestroyedEnclave(t *testing.T) {
	r := newRig(t)
	outer, _ := buildEnclave(t, r.k, r.p, 0x100000, 1)
	inner, innerTCSV := buildEnclave(t, r.k, r.p, 0x200000, 1)
	sgx.Link(r.m, inner, outer)
	if err := r.k.Driver.DestroyEnclave(r.p, inner); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EEnter(r.c, inner, innerTCSV, false); !isa.IsFault(err, isa.FaultGP) {
		got, rerr := r.c.Read(0x100000, 4)
		t.Fatalf("EENTER of a destroyed enclave: %v, want #GP; it then read its outer's page: %x, %v", err, got, rerr)
	}
	if r.c.InEnclave() {
		t.Fatal("refused EENTER left the core in enclave mode")
	}
}

// TestEResumeRefusesDestroyedEnclave: an enclave is entered and AEXed, so no
// core is in enclave mode and the kernel driver's teardown is accepted.
// ERESUME on the old TCS is refused with #GP. Accepting it left the core in
// enclave mode for an EID the machine no longer resolves.
func TestEResumeRefusesDestroyedEnclave(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	tcs, err := s.FindTCS(tcsV)
	if err != nil {
		t.Fatal(err)
	}
	r.enter(t, s, tcsV)
	if err := r.m.AEX(r.c); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Driver.DestroyEnclave(r.p, s); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EResume(r.c, tcs); !isa.IsFault(err, isa.FaultGP) {
		_, live := r.m.Enclave(s.EID)
		t.Fatalf("ERESUME into a destroyed enclave: %v, want #GP (in enclave %v, EID resolves %v)", err, r.c.InEnclave(), live)
	}
	if r.c.InEnclave() {
		t.Fatal("refused ERESUME left the core in enclave mode")
	}
}

// TestEntryRefusesRemovedTCS: EREMOVE of only an inner enclave's TCS page is
// accepted, since no thread uses it. EENTER through that TCS, and NEENTER
// into it from the outer, are then refused with #GP, though the SECS is
// live: the TCS's page is gone from the EPC.
func TestEntryRefusesRemovedTCS(t *testing.T) {
	r := newRig(t)
	outer, outerTCSV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	inner, innerTCSV := buildEnclave(t, r.k, r.p, 0x200000, 1)
	sgx.Link(r.m, inner, outer)
	if err := r.m.ERemove(tcsPageOf(t, r, inner)); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EEnter(r.c, inner, innerTCSV, false); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("EENTER through a removed TCS: %v, want #GP", err)
	}
	r.enter(t, outer, outerTCSV)
	if err := r.m.NEENTER(r.c, inner, innerTCSV); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("NEENTER through a removed TCS: %v, want #GP", err)
	}
	if got := r.c.Current(); got != outer {
		t.Fatalf("refused NEENTER left the core in enclave %v", got)
	}
}

// TestTCSFollowsItsPageThroughPaging: a TCS page evicted and reloaded into
// another frame still admits EENTER, since ELDU moves the TCS to its page's
// new frame.
func TestTCSFollowsItsPageThroughPaging(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	page := tcsPageOf(t, r, s)
	if err := r.m.EBlock(page); err != nil {
		t.Fatal(err)
	}
	r.m.ETrack(s, nil)
	blob, err := r.m.EWB(page, trace.NoCore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.EEnter(r.c, s, tcsV, false); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("EENTER through an evicted TCS: %v, want #GP", err)
	}
	// The EPC free list is LIFO: this ECREATE takes the TCS's old frame.
	if _, err := r.k.Driver.CreateEnclave(0x300000, 2*isa.PageSize, 0); err != nil {
		t.Fatal(err)
	}
	moved, err := r.m.ELDU(blob, trace.NoCore)
	if err != nil {
		t.Fatal(err)
	}
	if moved == page {
		t.Fatalf("ELDU reloaded the TCS into its old frame %d", page)
	}
	r.enter(t, s, tcsV)
	r.exit(t)
}

// TestLoadCR3RefusedInEnclaveMode: the CR3 load is refused while the core
// runs an enclave and, out of enclave mode, installs the address space and
// flushes the TLB.
func TestLoadCR3RefusedInEnclaveMode(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	other := r.k.NewProcess()
	r.enter(t, s, tcsV)
	if err := r.m.LoadCR3(r.c, other.PageTable()); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("CR3 load in enclave mode: %v, want #GP", err)
	}
	if r.c.AddressSpace() != r.p.PageTable() {
		t.Fatal("refused CR3 load switched the address space")
	}
	if _, err := r.c.Read(0x100000, 8); err != nil {
		t.Fatal(err)
	}
	r.exit(t)
	buf, err := r.p.Mmap(isa.PageSize, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.Read(buf, 8); err != nil || len(r.c.TLBEntries()) == 0 {
		t.Fatalf("host read: %v, TLB entries %d", err, len(r.c.TLBEntries()))
	}
	if err := r.m.LoadCR3(r.c, other.PageTable()); err != nil {
		t.Fatal(err)
	}
	if r.c.AddressSpace() != other.PageTable() || len(r.c.TLBEntries()) != 0 {
		t.Fatal("CR3 load did not install the address space and flush the TLB")
	}
}

// TestNewMachineFootprint bounds the host bytes one full-size machine costs
// to build. DRAM frames are allocated on first write, so a fresh machine's
// 256 MiB of simulated DRAM costs only its frame table; the bound leaves room
// for the LLC's line array and the MEE's per-page table.
func TestNewMachineFootprint(t *testing.T) {
	const bound = 32 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := sgx.New(sgx.DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("sgx.New(DefaultConfig()) allocated %d bytes, want at most %d", got, bound)
	}
	runtime.KeepAlive(m)
}
