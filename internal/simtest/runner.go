package simtest

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"nestedenclave/internal/cache"
	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/model"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// The static topology every schedule runs against. Four enclave slots with
// identical layouts (three data pages — the third read-only — and two TCSs);
// slot 3's ELRANGE deliberately overlaps slot 2's, so schedules exercise the
// NASSO overlap rejection and PT aliasing between enclaves that can never be
// associated. Three unsecure pages (one executable) and one spare non-PRM
// frame feed the remap attacks.
const (
	machineCores = 4
	// NumSlots is the number of enclave slots in the topology.
	NumSlots  = 4
	dataPages = 3
	numTCS    = 2
	slotPages = dataPages + numTCS
	slotSize  = uint64(slotPages) * isa.PageSize

	unsecPages = 3
	unsecVBase = isa.VAddr(0x0040_0000)
	unsecPBase = isa.PAddr(0x0010_0000)
	// sparePA is a plain DRAM frame outside PRM, mapped only by remap ops.
	sparePA = isa.PAddr(0x0070_0000)
	// unmappedV never receives a static mapping.
	unmappedV = isa.VAddr(0x0077_0000)
	// remapOnlyV is initially unmapped; remap ops may point it anywhere.
	remapOnlyV = isa.VAddr(0x0088_0000)

	prmBase = 2 << 20
	prmSize = 4 << 20

	// dataFill is the initial content byte of enclave data pages. The
	// harness never writes 0xFF anywhere, so an all-ones read is proof of
	// abort-page semantics (see the OpRead handler).
	dataFill = 0x5a
)

var slotBases = [NumSlots]isa.VAddr{
	0x1000_0000,
	0x2000_0000,
	0x3000_0000,
	0x3000_2000, // overlaps slot 2: [0x3000_0000, 0x3000_5000)
}

func dataVaddr(slot, j int) isa.VAddr {
	return slotBases[slot] + isa.VAddr(j)*isa.PageSize
}

func tcsVaddr(slot, k int) isa.VAddr {
	return slotBases[slot] + isa.VAddr(dataPages+k)*isa.PageSize
}

// dataPerms returns the author (EPCM) permissions of data page j: the third
// page is read-only so schedules hit the EPCM-permission #PF branch.
func dataPerms(j int) isa.Perm {
	if j == 2 {
		return isa.PermR
	}
	return isa.PermRW
}

var unsecPerms = [unsecPages]isa.Perm{isa.PermRW, isa.PermRW, isa.PermRWX}

// remapPerms are the PTE permissions a remap attack may install.
var remapPerms = [4]isa.Perm{isa.PermRW, isa.PermRWX, isa.PermR, isa.PermRW}

type slotState struct {
	secs *sgx.SECS
	eid  isa.EID // 0 while unbuilt; mirrors the oracle's EID by construction
}

// slotCerts is the signing identity and per-slot certificates every runner
// shares. The topology (and therefore every slot's measurement) is static, so
// one author signing each slot once serves all runners. Sharing matters for
// the systematic explorer, which forks a fresh runner per DFS branch: four
// ed25519 signatures per fork would dominate its runtime.
type slotCerts struct {
	author  *measure.Author
	digests [NumSlots]measure.Digest
	certs   [NumSlots]*measure.SigStruct
}

var sharedCerts = sync.OnceValue(func() *slotCerts {
	cs := &slotCerts{author: measure.MustNewAuthor()}
	all := make([]measure.Digest, 0, NumSlots)
	for slot := 0; slot < NumSlots; slot++ {
		cs.digests[slot] = slotDigest()
		all = append(all, cs.digests[slot])
	}
	// Every slot's certificate names every slot's measurement as both an
	// allowed inner and an allowed outer, so NASSO outcomes in schedules
	// depend only on the structural rules (cycles, depth, overlap) the oracle
	// models — never on the certificate path, which internal/core's own tests
	// cover.
	for slot := 0; slot < NumSlots; slot++ {
		cs.certs[slot] = cs.author.Sign(cs.digests[slot], all, all)
	}
	return cs
})

// Runner drives one machine and one oracle in lockstep. Single-goroutine.
type Runner struct {
	m  *sgx.Machine
	o  *model.Oracle
	pt *pt.Table

	author  *measure.Author
	digests [NumSlots]measure.Digest
	certs   [NumSlots]*measure.SigStruct

	slots [NumSlots]slotState
	// blobs holds pages currently swapped out, keyed by virtual page base.
	blobs map[isa.VAddr]*sgx.EvictedPage
	// stale holds, per page, the most recent *consumed* blob — the capture a
	// malicious kernel would replay. Fed by the reload path, drained never:
	// the adversarial replay op (OpEvict with B&0x40) presents it to ELDU and
	// diffs the refusal against the oracle's freshness ledger.
	stale map[isa.VAddr]*sgx.EvictedPage

	// pool is the fixed virtual-address pool access and remap ops draw from.
	pool []isa.VAddr

	step int
}

// NewRunner builds a fresh machine + oracle pair for one schedule.
func NewRunner(maxDepth int, multiOuter bool) *Runner {
	m := sgx.MustNew(sgx.Config{
		Cores:   machineCores,
		Phys:    phys.Layout{DRAMSize: 8 << 20, PRMBase: prmBase, PRMSize: prmSize},
		LLC:     cache.Config{SizeBytes: 256 << 10, Ways: 16},
		Nesting: sgx.NestingConfig{MaxDepth: maxDepth, AllowMultipleOuters: multiOuter},
	})
	o := model.New(model.Config{
		Cores: machineCores, PRMBase: prmBase, PRMSize: prmSize,
		MaxDepth: maxDepth, MultiOuter: multiOuter,
	})
	r := &Runner{
		m: m, o: o, pt: pt.New(),
		blobs: make(map[isa.VAddr]*sgx.EvictedPage),
		stale: make(map[isa.VAddr]*sgx.EvictedPage),
	}
	for _, c := range m.Cores() {
		if err := m.LoadCR3(c, r.pt); err != nil {
			panic(err) // a fresh machine runs no enclave
		}
	}
	for i := 0; i < unsecPages; i++ {
		r.pt.Map(unsecVBase+isa.VAddr(i)*isa.PageSize, unsecPBase+isa.PAddr(i)*isa.PageSize, unsecPerms[i])
	}
	for slot := 0; slot < NumSlots; slot++ {
		for j := 0; j < dataPages; j++ {
			r.pool = append(r.pool, dataVaddr(slot, j))
		}
		r.pool = append(r.pool, tcsVaddr(slot, 0))
	}
	for i := 0; i < unsecPages; i++ {
		r.pool = append(r.pool, unsecVBase+isa.VAddr(i)*isa.PageSize)
	}
	r.pool = append(r.pool, unmappedV, remapOnlyV)

	cs := sharedCerts()
	r.author = cs.author
	r.digests = cs.digests
	r.certs = cs.certs
	return r
}

// Machine exposes the machine under test to directed tests.
func (r *Runner) Machine() *sgx.Machine { return r.m }

// Oracle exposes the reference model.
func (r *Runner) Oracle() *model.Oracle { return r.o }

// Slot returns the SECS of a built slot (nil while unbuilt).
func (r *Runner) Slot(i int) *sgx.SECS { return r.slots[i].secs }

// Blob returns the sealed blob of an evicted page, if v is currently out.
func (r *Runner) Blob(v isa.VAddr) *sgx.EvictedPage { return r.blobs[v.PageBase()] }

// SetValidator swaps the machine's access validator — the hook the
// injected-bug self-test uses to prove the harness catches a broken Figure-6
// implementation.
func (r *Runner) SetValidator(v sgx.Validator) { r.m.Validator = v }

// slotDigest mirrors, independently of the machine, the measurement the
// machine accumulates while buildSlot constructs a slot. All slots share one
// layout, so the digest is slot-independent.
func slotDigest() measure.Digest {
	b := measure.NewBuilder()
	b.ECreate(slotSize, 0)
	content := bytes.Repeat([]byte{dataFill}, isa.PageSize)
	for j := 0; j < dataPages; j++ {
		off := uint64(j) * isa.PageSize
		b.EAdd(off, isa.PTReg, dataPerms(j))
		for ch := 0; ch < isa.PageSize; ch += isa.ExtendChunk {
			b.EExtend(off+uint64(ch), content[ch:ch+isa.ExtendChunk])
		}
	}
	for k := 0; k < numTCS; k++ {
		b.EAdd(uint64(dataPages+k)*isa.PageSize, isa.PTTCS, 0)
	}
	return b.Finalize()
}

// RunOps executes the ops in order, stopping at the first divergence. It
// returns the index of the failing op and the divergence description.
func (r *Runner) RunOps(ops []Op) (int, error) {
	for i, op := range ops {
		if err := r.Step(op); err != nil {
			return i, fmt.Errorf("op %d %v: %w", i, op, err)
		}
	}
	return len(ops), nil
}

// Run executes a complete schedule.
func (r *Runner) Run(s Schedule) (int, error) { return r.RunOps(s.Ops) }

// Step applies one op to both sides, then diffs all per-core observable
// state and re-checks the four security invariants.
func (r *Runner) Step(op Op) error {
	r.step++
	if err := r.apply(op); err != nil {
		return err
	}
	if err := r.diffState(); err != nil {
		return err
	}
	return r.AuditInvariants()
}

// classify maps a machine error to the oracle's verdict space. The typed
// blob-replay detection folds into VGP: architecturally it is a refused
// instruction, and the oracle's freshness ledger predicts exactly VGP for it.
func classify(err error) (model.Verdict, bool) {
	switch {
	case err == nil:
		return model.VOK, true
	case isa.IsFault(err, isa.FaultPF):
		return model.VPF, true
	case isa.IsFault(err, isa.FaultGP):
		return model.VGP, true
	case errors.Is(err, sgx.ErrBlobReplay):
		return model.VGP, true
	}
	return 0, false
}

// diffVerdict compares the machine's outcome of a non-access instruction
// with the oracle's prediction.
func diffVerdict(what string, err error, want model.Verdict) error {
	got, ok := classify(err)
	if !ok {
		return fmt.Errorf("%s: machine raised unclassifiable error %v (oracle: %v)", what, err, want)
	}
	if got != want {
		return fmt.Errorf("%s: machine %v (%v), oracle %v", what, got, err, want)
	}
	return nil
}

func (r *Runner) apply(op Op) error {
	kind := op.Kind % numOpKinds
	coreID := int(op.Core) % machineCores
	slot := int(op.Slot) % NumSlots
	c := r.m.Core(coreID)

	switch kind {
	case OpBuild:
		return r.buildSlot(slot)

	case OpAssociate:
		outerSlot := int(op.A) % NumSlots
		err := r.m.NASSO(r.slots[slot].secs, r.slots[outerSlot].secs)
		want := r.o.NASSO(r.slots[slot].eid, r.slots[outerSlot].eid)
		return diffVerdict(fmt.Sprintf("NASSO(inner=slot%d, outer=slot%d)", slot, outerSlot), err, want)

	case OpEnter:
		tcs := int(op.A) % numTCS
		resume := op.B&1 == 1
		err := r.m.EEnter(c, r.slots[slot].secs, tcsVaddr(slot, tcs), resume)
		want := r.o.EEnter(coreID, r.slots[slot].eid, tcs, resume)
		return diffVerdict(fmt.Sprintf("EENTER(core %d, slot%d, tcs%d, resume=%v)", coreID, slot, tcs, resume), err, want)

	case OpExit:
		release := op.A&1 == 1
		err := r.m.EExit(c, release)
		want := r.o.EExit(coreID, release)
		return diffVerdict(fmt.Sprintf("EEXIT(core %d, release=%v)", coreID, release), err, want)

	case OpNEnter:
		tcs := int(op.A) % numTCS
		err := r.m.NEENTER(c, r.slots[slot].secs, tcsVaddr(slot, tcs))
		want := r.o.NEEnter(coreID, r.slots[slot].eid, tcs)
		return diffVerdict(fmt.Sprintf("NEENTER(core %d, slot%d, tcs%d)", coreID, slot, tcs), err, want)

	case OpNExit:
		err := r.m.NEEXIT(c)
		want := r.o.NEExit(coreID)
		return diffVerdict(fmt.Sprintf("NEEXIT(core %d)", coreID), err, want)

	case OpAEX:
		err := r.m.AEX(c)
		want := r.o.AEX(coreID)
		return diffVerdict(fmt.Sprintf("AEX(core %d)", coreID), err, want)

	case OpResume:
		tcs := int(op.A) % numTCS
		s := r.slots[slot].secs
		if s == nil {
			// The machine's ERESUME takes a *TCS operand; with the slot
			// unbuilt there is no TCS to name, so the op is a no-op on both
			// sides.
			return nil
		}
		err := r.m.EResume(c, s.TCSs()[tcs])
		want := r.o.EResume(coreID, r.slots[slot].eid, tcs)
		return diffVerdict(fmt.Sprintf("ERESUME(core %d, slot%d, tcs%d)", coreID, slot, tcs), err, want)

	case OpRead:
		return r.accessRead(coreID, op)
	case OpWrite:
		return r.accessWrite(coreID, op)
	case OpFetch:
		return r.accessFetch(coreID, op)

	case OpRemap:
		v := r.pool[int(op.A)%len(r.pool)].PageBase()
		frames := r.framePool()
		pa := frames[int(op.B)%len(frames)]
		perms := remapPerms[(int(op.A)+int(op.B))%len(remapPerms)]
		// Pure page-table attack: no oracle action, no verdict. The kernel
		// may write anything; the access validator is what must hold.
		r.pt.Map(v, pa, perms)
		return nil

	case OpUnmap:
		v := r.pool[int(op.A)%len(r.pool)].PageBase()
		if op.B&1 == 1 {
			r.pt.MarkNotPresent(v)
		} else {
			r.pt.Unmap(v)
		}
		return nil

	case OpEvict:
		return r.evict(slot, op)
	}
	return nil
}

// buildSlot constructs the slot end to end on both sides and cross-checks
// the allocated identities. A no-op if already built.
func (r *Runner) buildSlot(slot int) error {
	if r.slots[slot].secs != nil {
		return nil
	}
	base := slotBases[slot]
	s, err := r.m.ECreate(base, slotSize, 0)
	if err != nil {
		return fmt.Errorf("build slot%d: ECREATE: %v", slot, err)
	}
	secsPages := r.m.EPCPagesOf(s.EID)
	if len(secsPages) != 1 {
		return fmt.Errorf("build slot%d: fresh enclave owns %d pages, want 1 (SECS)", slot, len(secsPages))
	}
	eid, v := r.o.ECreate(secsPages[0], uint64(base), slotSize)
	if v != model.VOK {
		return fmt.Errorf("build slot%d: oracle rejects ECreate: %v", slot, v)
	}
	if eid != s.EID {
		return fmt.Errorf("build slot%d: machine EID %d, oracle EID %d", slot, s.EID, eid)
	}
	content := bytes.Repeat([]byte{dataFill}, isa.PageSize)
	for j := 0; j < dataPages; j++ {
		va := dataVaddr(slot, j)
		page, err := r.m.EAdd(s, sgx.AddPageArgs{
			Vaddr: va, Type: isa.PTReg, Perms: dataPerms(j), Content: content, Measure: true,
		})
		want := model.VOK
		if err != nil {
			return fmt.Errorf("build slot%d: EADD data%d: %v", slot, j, err)
		}
		if got := r.o.EAdd(eid, page, uint64(va), isa.PTReg, dataPerms(j)); got != want {
			return fmt.Errorf("build slot%d: oracle rejects EAdd data%d: %v", slot, j, got)
		}
		// The PTE grants RW even on the read-only page, so the effective
		// permission comes from the EPCM intersection — the branch under test.
		r.pt.Map(va, r.epcAddr(page), isa.PermRW)
	}
	for k := 0; k < numTCS; k++ {
		va := tcsVaddr(slot, k)
		page, err := r.m.EAdd(s, sgx.AddPageArgs{Vaddr: va, Type: isa.PTTCS, Entry: k})
		if err != nil {
			return fmt.Errorf("build slot%d: EADD tcs%d: %v", slot, k, err)
		}
		if got := r.o.EAdd(eid, page, uint64(va), isa.PTTCS, 0); got != model.VOK {
			return fmt.Errorf("build slot%d: oracle rejects EAdd tcs%d: %v", slot, k, got)
		}
		r.pt.Map(va, r.epcAddr(page), isa.PermR)
	}
	if err := r.m.EInit(s, r.certs[slot]); err != nil {
		return fmt.Errorf("build slot%d: EINIT: %v", slot, err)
	}
	if got := r.o.EInit(eid); got != model.VOK {
		return fmt.Errorf("build slot%d: oracle rejects EInit: %v", slot, got)
	}
	r.slots[slot] = slotState{secs: s, eid: eid}
	return nil
}

// framePool returns the physical frames remap attacks may install: the
// unsecure frames, the spare DRAM frame, and every EPC page of every built
// slot (SECS and TCS pages included — aliasing those must abort).
func (r *Runner) framePool() []isa.PAddr {
	out := make([]isa.PAddr, 0, 4+NumSlots*(slotPages+1))
	for i := 0; i < unsecPages; i++ {
		out = append(out, unsecPBase+isa.PAddr(i)*isa.PageSize)
	}
	out = append(out, sparePA)
	for slot := 0; slot < NumSlots; slot++ {
		if r.slots[slot].secs == nil {
			continue
		}
		pages := r.m.EPCPagesOf(r.slots[slot].eid)
		slices.Sort(pages) // EPC order, SECS included
		for _, p := range pages {
			out = append(out, r.epcAddr(p))
		}
	}
	return out
}

// epcAddr returns the physical address of EPC page i.
func (r *Runner) epcAddr(i int) isa.PAddr { return epc.PageAddr(r.m.DRAM.Layout(), i) }

// accessAddr resolves an access op's target: pool entry A at an 8-byte-safe
// offset derived from B.
func (r *Runner) accessAddr(op Op) isa.VAddr {
	v := r.pool[int(op.A)%len(r.pool)]
	off := (uint64(op.B) * 24) % (isa.PageSize - 8)
	return v + isa.VAddr(off)
}

// pteFor snapshots the shared page table's entry for the oracle, which does
// not model page tables (they are untrusted input in the threat model).
func (r *Runner) pteFor(v isa.VAddr) model.PTE {
	e, ok := r.pt.Walk(v)
	return model.PTE{Mapped: ok, Present: e.Present, PPN: e.PPN, Perms: e.Perms}
}

func allFF(b []byte) bool {
	for _, x := range b {
		if x != 0xFF {
			return false
		}
	}
	return true
}

func (r *Runner) accessRead(coreID int, op Op) error {
	v := r.accessAddr(op)
	want := r.o.Access(coreID, uint64(v), r.pteFor(v), isa.Read)
	var buf [8]byte
	err := r.m.Core(coreID).ReadInto(v, buf[:])
	got, ok := classify(err)
	if !ok {
		return fmt.Errorf("read %#x on core %d: unclassifiable error %v", uint64(v), coreID, err)
	}
	if err == nil && allFF(buf[:]) {
		// No page in the topology legitimately contains 0xFF (data pages are
		// filled with dataFill, unsecure pages with zeroes, and writes never
		// store 0xFF), so an all-ones read is the abort page.
		got = model.VAbort
	}
	if got != want {
		return fmt.Errorf("read %#x on core %d: machine %v (err=%v data=%x), oracle %v",
			uint64(v), coreID, got, err, buf, want)
	}
	return nil
}

func (r *Runner) accessWrite(coreID int, op Op) error {
	v := r.accessAddr(op)
	want := r.o.Access(coreID, uint64(v), r.pteFor(v), isa.Write)
	payload := bytes.Repeat([]byte{byte(1 + r.step%250)}, 8)
	err := r.m.Core(coreID).Write(v, payload)
	if err == nil {
		// Success and silent abort-drop are indistinguishable at the write
		// call; the TLB diff after the op separates them (VOK inserts an
		// entry, VAbort must not).
		if want != model.VOK && want != model.VAbort {
			return fmt.Errorf("write %#x on core %d: machine ok, oracle %v", uint64(v), coreID, want)
		}
		return nil
	}
	return diffVerdict(fmt.Sprintf("write %#x on core %d", uint64(v), coreID), err, want)
}

func (r *Runner) accessFetch(coreID int, op Op) error {
	v := r.accessAddr(op)
	want := r.o.Access(coreID, uint64(v), r.pteFor(v), isa.Execute)
	err := r.m.Core(coreID).Fetch(v)
	switch {
	case err == nil:
		if want != model.VOK {
			return fmt.Errorf("fetch %#x on core %d: machine ok, oracle %v", uint64(v), coreID, want)
		}
	case isa.IsFault(err, isa.FaultPF):
		// A fetch from the abort page surfaces as #PF on the machine.
		if want != model.VPF && want != model.VAbort {
			return fmt.Errorf("fetch %#x on core %d: machine #PF (%v), oracle %v", uint64(v), coreID, err, want)
		}
	default:
		return diffVerdict(fmt.Sprintf("fetch %#x on core %d", uint64(v), coreID), err, want)
	}
	return nil
}

// evict runs the full eviction protocol on slot's data page A%3, or reloads
// it if currently swapped out. B's top bit injects the skipped-shootdown
// fault; the machine's EWB and the oracle must then both refuse while any
// TLB still maps the page. B&0x40 is the adversarial-kernel replay op: the
// most recent consumed blob of the page is presented to ELDU again, and the
// machine's refusal is diffed against the oracle's freshness ledger.
func (r *Runner) evict(slot int, op Op) error {
	st := r.slots[slot]
	if st.secs == nil {
		return nil
	}
	target := dataVaddr(slot, int(op.A)%dataPages)

	if op.B&0x40 != 0 {
		stale := r.stale[target]
		if stale == nil {
			return nil // nothing captured yet: the attack has no ammunition
		}
		page, err := r.m.ELDU(stale, trace.NoCore)
		idx := page
		if err != nil {
			idx = -1
		}
		want := r.o.ELD(stale.Owner, idx, uint64(stale.Vaddr), stale.Type, stale.Perms, stale.Version)
		return diffVerdict(fmt.Sprintf("ELDU-replay slot%d %#x ver%d", slot, uint64(target), stale.Version), err, want)
	}

	if blob, out := r.blobs[target]; out {
		page, err := r.m.ELDU(blob, trace.NoCore)
		if err != nil {
			return fmt.Errorf("ELDU %#x: %v", uint64(target), err)
		}
		if got := r.o.ELD(blob.Owner, page, uint64(blob.Vaddr), blob.Type, blob.Perms, blob.Version); got != model.VOK {
			return fmt.Errorf("ELDU %#x: oracle rejects reload: %v", uint64(target), got)
		}
		r.stale[target] = blob // consumed: exactly what a replaying kernel would hoard
		delete(r.blobs, target)
		r.pt.Map(target, r.epcAddr(page), isa.PermRW)
		return nil
	}

	pageIdx, found := r.m.FindRegPage(st.secs, target)
	if !found {
		return nil
	}

	if err := diffVerdict(fmt.Sprintf("EBLOCK slot%d %#x", slot, uint64(target)),
		r.m.EBlock(pageIdx), r.o.EBlock(pageIdx)); err != nil {
		return err
	}

	// ETRACK: the shootdown sets themselves are a diffed observable — this is
	// where the §IV-E inner-aware tracking must match the oracle's closure
	// walk.
	cores := r.m.ETrack(st.secs, nil)
	gotSet := make([]int, 0, len(cores))
	for _, c := range cores {
		gotSet = append(gotSet, c.ID)
	}
	wantSet := r.o.ShootdownSet(st.eid)
	if !equalInts(gotSet, wantSet) {
		return fmt.Errorf("ETRACK slot%d: machine shootdown set %v, oracle %v", slot, gotSet, wantSet)
	}

	if op.B&0x80 == 0 {
		for _, c := range cores {
			r.m.ShootdownFor(c, st.eid)
			r.o.Shootdown(c.ID)
		}
	}
	// else: fault injection — skip the IPIs; EWB below must catch it.

	blob, err := r.m.EWB(pageIdx, trace.NoCore, nil)
	if derr := diffVerdict(fmt.Sprintf("EWB slot%d %#x", slot, uint64(target)),
		err, r.o.EWB(pageIdx)); derr != nil {
		return derr
	}
	if err == nil {
		r.blobs[target] = blob
		r.pt.MarkNotPresent(target)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffState compares every per-core observable after a step: enclave mode,
// current EID, and the complete TLB contents.
func (r *Runner) diffState() error {
	for i := 0; i < machineCores; i++ {
		c := r.m.Core(i)
		if c.InEnclave() != r.o.InEnclave(i) {
			return fmt.Errorf("core %d: machine inEnclave=%v, oracle %v", i, c.InEnclave(), r.o.InEnclave(i))
		}
		var meid isa.EID
		if cur := c.Current(); cur != nil {
			meid = cur.EID
		}
		if meid != r.o.CurEID(i) {
			return fmt.Errorf("core %d: machine runs EID %d, oracle EID %d", i, meid, r.o.CurEID(i))
		}
		ments := c.TLBEntries()
		oents := r.o.TLB(i)
		if len(ments) != len(oents) {
			return fmt.Errorf("core %d: machine TLB has %d entries, oracle %d (machine %v, oracle%s)",
				i, len(ments), len(oents), ments, r.o.DumpTLB(i))
		}
		for _, e := range ments {
			oe, ok := oents[e.VPN]
			if !ok {
				return fmt.Errorf("core %d: machine TLB maps vpn %#x, oracle does not (oracle%s)",
					i, e.VPN, r.o.DumpTLB(i))
			}
			if oe.PPN != e.PPN || oe.Perms != e.Perms {
				return fmt.Errorf("core %d: TLB vpn %#x: machine ppn %#x perms %v, oracle ppn %#x perms %v",
					i, e.VPN, e.PPN, e.Perms, oe.PPN, oe.Perms)
			}
		}
	}
	return nil
}

// AuditInvariants checks the paper's four §VII-A security invariants with
// the machine's own auditor (sgx.Machine.AuditInvariants), independently of
// the oracle, so a bug that fools both the validator and the model still has
// to evade this structural check. It returns the first finding.
func (r *Runner) AuditInvariants() error {
	if v := r.m.AuditInvariants(); len(v) > 0 {
		return errors.New(v[0])
	}
	return nil
}

// Diverges reports whether the schedule produces any machine/oracle
// divergence on a fresh, correct machine. It is the predicate Shrink uses.
func Diverges(s Schedule) bool {
	_, err := NewRunner(s.MaxDepth, s.MultiOuter).Run(s)
	return err != nil
}

// Fingerprint hashes every piece of state a future op's verdict can depend
// on: the oracle's canonical serialization (EPCM, lattice, TCS occupancy,
// per-core context, TLBs — the machine's observables are diffed against it
// every step, so it stands in for both sides), plus the runner's own
// semantic inputs — the shared page table, the set of evicted pages, and the
// slot→EID bindings. Deliberately excluded: the step counter and page
// contents (write payloads never influence a verdict; the harness never
// writes 0xFF, so abort-page detection is content-stable), simulated-cycle
// counters, and cache state. The explorer memoizes on this hash.
func (r *Runner) Fingerprint() uint64 {
	b := r.o.AppendCanonical(nil)
	vpns := r.pt.VPNs()
	slices.Sort(vpns)
	for _, vpn := range vpns {
		e, ok := r.pt.Walk(isa.VAddr(vpn << isa.PageShift))
		if !ok {
			continue
		}
		b = appendU64(b, vpn)
		b = appendU64(b, e.PPN)
		b = appendU64(b, uint64(e.Perms))
		if e.Present {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	outVaddrs := make([]uint64, 0, len(r.blobs))
	for v := range r.blobs {
		outVaddrs = append(outVaddrs, uint64(v))
	}
	slices.Sort(outVaddrs)
	for _, v := range outVaddrs {
		b = appendU64(b, v)
	}
	// Stale-blob captures gate whether the adversarial replay op has
	// ammunition, so two states differing only in captures must explore
	// separately.
	staleVaddrs := make([]uint64, 0, len(r.stale))
	for v := range r.stale {
		staleVaddrs = append(staleVaddrs, uint64(v))
	}
	slices.Sort(staleVaddrs)
	for _, v := range staleVaddrs {
		b = appendU64(b, v)
		b = appendU64(b, r.stale[isa.VAddr(v)].Version)
	}
	for slot := 0; slot < NumSlots; slot++ {
		b = appendU64(b, uint64(r.slots[slot].eid))
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
