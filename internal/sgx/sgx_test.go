package sgx_test

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sgx"
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
	if err := r.m.LLC.FlushAll(trace.NoPayer); err != nil {
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

func TestDestroyEnclaveAndEIDReuse(t *testing.T) {
	r := newRig(t)
	s, _ := buildEnclave(t, r.k, r.p, 0x100000, 1)
	eid := s.EID
	free := r.m.EPC.FreePages()
	if err := r.k.Driver.DestroyEnclave(r.p, s); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.m.Enclave(eid); ok {
		t.Fatal("destroyed enclave still resolvable")
	}
	if r.m.EPC.FreePages() != free+3 { // 1 data + 1 TCS + 1 SECS
		t.Fatalf("EPC pages not reclaimed: %d -> %d", free, r.m.EPC.FreePages())
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
	pages := r.m.EPC.PagesOf(s.EID)
	var secsPage = -1
	for _, p := range pages {
		if r.m.EPC.Entry(p).Type == isa.PTSECS {
			secsPage = p
		}
	}
	if err := r.m.ERemove(secsPage); err == nil {
		t.Fatal("SECS removed while enclave pages remain")
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
