package simtest

// Fault injection: this file proves the harness has teeth. It injects
// deliberately broken validators (the acceptance criterion's flipped
// outer-ELRANGE branch), broken kernels (skipped shootdown IPIs), forged
// EPCM-mismatch mappings, stale TLB entries, and replayed paging blobs — and
// asserts that the machine *denies* what it must and that the harness
// *catches* what the machine gets wrong.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

func sgxAbort() (tlb.Entry, sgx.Verdict) { return tlb.Entry{}, sgx.Verdict{Path: sgx.PathAbort} }

func sgxFault(f *isa.Fault) (tlb.Entry, sgx.Verdict) {
	return tlb.Entry{}, sgx.Verdict{Path: sgx.PathFault, Fault: f}
}

// flippedOuterELRANGE is the Figure-6 flow with exactly one bug: the step-⑤
// outer-ELRANGE condition is inverted, so a legitimate inner→outer access
// whose vaddr lies inside the outer's ELRANGE aborts instead of validating.
// The lockstep harness must catch this as a verdict divergence.
type flippedOuterELRANGE struct{}

func (flippedOuterELRANGE) Validate(c *sgx.Core, v isa.VAddr, pte pt.PTE, op isa.Access) (tlb.Entry, sgx.Verdict) {
	m := c.Machine()
	paddr := isa.PAddr(pte.PPN << isa.PageShift)
	if !pte.Perms.Allows(op) {
		return sgxFault(isa.PF(v, op, "page-table permission"))
	}
	if !c.InEnclave() {
		if m.DRAM.PageInPRM(paddr) {
			return sgxAbort()
		}
		return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: pte.Perms}, sgx.Verdict{}
	}
	s := c.Current()
	if m.DRAM.PageInPRM(paddr) {
		ent, ok := m.EPC.EntryAt(paddr)
		if !ok || !ent.Valid {
			return sgxAbort()
		}
		if ent.Blocked {
			return sgxFault(isa.PF(v, op, "EPC page blocked for eviction"))
		}
		if ent.Type != isa.PTReg {
			return sgxAbort()
		}
		if ent.Owner == s.EID {
			if ent.Vaddr != v.PageBase() {
				return sgxAbort()
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return sgxFault(isa.PF(v, op, "EPCM permission"))
			}
			return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: eff,
				FilledInEnclave: true, FilledEID: s.EID}, sgx.Verdict{}
		}
		for _, outer := range m.OuterChain(s) {
			if ent.Owner != outer.EID {
				continue
			}
			// THE INJECTED BUG: the outer-ELRANGE containment test is
			// flipped (correct code requires !outer.ContainsVPN to abort).
			if ent.Vaddr != v.PageBase() || outer.ContainsVPN(v.VPN()) {
				return sgxAbort()
			}
			eff := ent.Perms & pte.Perms
			if !eff.Allows(op) {
				return sgxFault(isa.PF(v, op, "EPCM permission (outer page)"))
			}
			return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: eff,
				FilledInEnclave: true, FilledEID: s.EID}, sgx.Verdict{Path: sgx.PathOuter}
		}
		return sgxAbort()
	}
	if s.ContainsVPN(v.VPN()) {
		return sgxFault(isa.PF(v, op, "ELRANGE page not backed by EPC (evicted?)"))
	}
	for _, outer := range m.OuterChain(s) {
		if outer.ContainsVPN(v.VPN()) {
			return sgxFault(isa.PF(v, op, "outer ELRANGE page not backed by EPC (evicted?)"))
		}
	}
	perms := pte.Perms &^ isa.PermX
	if !perms.Allows(op) {
		return sgxFault(isa.PF(v, op, "execute from unsecure memory in enclave mode"))
	}
	return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: perms,
		FilledInEnclave: true, FilledEID: s.EID}, sgx.Verdict{}
}

// leakyOuterRangeC is the Figure-6 flow with the path-C steps ①② dropped:
// a vaddr inside an *outer* enclave's ELRANGE whose PTE points outside PRM is
// treated as ordinary unsecure memory instead of page-faulting — an
// information-flow hole (a remap attack would redirect inner reads of outer
// state into attacker memory).
type leakyOuterRangeC struct{}

func (leakyOuterRangeC) Validate(c *sgx.Core, v isa.VAddr, pte pt.PTE, op isa.Access) (tlb.Entry, sgx.Verdict) {
	m := c.Machine()
	paddr := isa.PAddr(pte.PPN << isa.PageShift)
	if !c.InEnclave() || m.DRAM.PageInPRM(paddr) {
		// In-PRM and non-enclave paths: defer to the correct validator.
		return sgx.Figure6Validator{}.Validate(c, v, pte, op)
	}
	if !pte.Perms.Allows(op) {
		return sgxFault(isa.PF(v, op, "page-table permission"))
	}
	s := c.Current()
	if s.ContainsVPN(v.VPN()) {
		return sgxFault(isa.PF(v, op, "ELRANGE page not backed by EPC (evicted?)"))
	}
	// THE INJECTED BUG: the outer-ELRANGE walk (steps ①②) is missing here.
	perms := pte.Perms &^ isa.PermX
	if !perms.Allows(op) {
		return sgxFault(isa.PF(v, op, "execute from unsecure memory in enclave mode"))
	}
	return tlb.Entry{VPN: v.VPN(), PPN: pte.PPN, Perms: perms,
		FilledInEnclave: true, FilledEID: s.EID}, sgx.Verdict{}
}

// TestInjectedOuterELRANGEBugCaught is the acceptance criterion's self-test:
// with the flipped outer-ELRANGE validator installed, randomized schedules
// must surface a divergence, and the shrinker must reduce it to a minimal
// replayable schedule that still diverges.
func TestInjectedOuterELRANGEBugCaught(t *testing.T) {
	divergesFlipped := func(s Schedule) bool {
		r := NewRunner(s.MaxDepth, s.MultiOuter)
		r.SetValidator(flippedOuterELRANGE{})
		_, err := r.Run(s)
		return err != nil
	}
	const maxSeeds = 500
	for seed := int64(0); seed < maxSeeds; seed++ {
		sched := Generate(seed, 64)
		r := NewRunner(sched.MaxDepth, sched.MultiOuter)
		r.SetValidator(flippedOuterELRANGE{})
		step, err := r.Run(sched)
		if err == nil {
			continue
		}
		t.Logf("injected bug caught at seed %d, op %d: %v", seed, step, err)
		shrunk := Shrink(sched, divergesFlipped)
		if !divergesFlipped(shrunk) {
			t.Fatalf("shrunk schedule no longer diverges")
		}
		if Diverges(shrunk) {
			t.Fatalf("shrunk schedule diverges even on the correct machine")
		}
		t.Logf("shrunk from %d to %d ops; minimal reproduction:\n%s",
			len(sched.Ops), len(shrunk.Ops), FormatRegression(shrunk))
		return
	}
	t.Fatalf("flipped outer-ELRANGE bug not caught in %d schedules — the harness is blind", maxSeeds)
}

// nestedReadSetup is the canonical schedule prefix establishing a nested
// context: slots 0 (outer) and 1 (inner) built and associated, core 1 inside
// the inner enclave via outer→NEENTER.
var nestedReadSetup = []Op{
	{Kind: OpBuild, Slot: 0},
	{Kind: OpBuild, Slot: 1},
	{Kind: OpAssociate, Slot: 1, A: 0}, // inner=slot1, outer=slot0
	{Kind: OpEnter, Core: 1, Slot: 0},
	{Kind: OpNEnter, Core: 1, Slot: 1},
}

// TestInjectedPathCLeakCaughtDirected checks that the harness also catches an
// *allow* bug: with the path-C outer-ELRANGE walk removed, a remapped outer
// vaddr pointing into attacker memory validates instead of page-faulting, and
// the lockstep diff flags it (machine ok vs oracle #PF).
func TestInjectedPathCLeakCaughtDirected(t *testing.T) {
	buildAndAlias := func(r *Runner) {
		if _, err := r.RunOps(nestedReadSetup); err != nil {
			t.Fatalf("setup: %v", err)
		}
		// Kernel remap attack: alias the outer's data page 0 to a plain DRAM
		// frame outside PRM.
		r.pt.Map(dataVaddr(0, 0), sparePA, isa.PermRW)
	}
	readOuter := Op{Kind: OpRead, Core: 1, A: 0} // pool[0] = slot0 data0

	// On the correct machine this is a #PF on both sides: no divergence.
	r := NewRunner(2, false)
	buildAndAlias(r)
	if err := r.Step(readOuter); err != nil {
		t.Fatalf("correct machine diverged: %v", err)
	}

	// With the leak injected, the lockstep diff must catch it.
	r = NewRunner(2, false)
	r.SetValidator(leakyOuterRangeC{})
	buildAndAlias(r)
	if err := r.Step(readOuter); err == nil {
		t.Fatalf("path-C leak not caught: inner read of remapped outer vaddr validated silently")
	} else {
		t.Logf("leak caught: %v", err)
	}
}

// TestSkipShootdownEWBDenied drives the eviction protocol with the shootdown
// IPIs maliciously skipped while core 1 (inside the inner enclave) holds a
// live translation for the outer page. The machine's EWB and the oracle must
// both refuse — in lockstep — and a correct retry must then succeed.
func TestSkipShootdownEWBDenied(t *testing.T) {
	r := NewRunner(2, false)
	ops := append(append([]Op{}, nestedReadSetup...),
		Op{Kind: OpRead, Core: 1, A: 0},           // fill core 1's TLB with the outer page
		Op{Kind: OpEvict, Slot: 0, A: 0, B: 0x80}, // skip shootdown: EWB must refuse
	)
	if _, err := r.RunOps(ops); err != nil {
		t.Fatalf("lockstep divergence: %v", err)
	}
	// The page must still be resident and blocked; no blob was produced.
	if r.Blob(dataVaddr(0, 0)) != nil {
		t.Fatalf("EWB produced a blob despite a live stale translation")
	}
	m := r.Machine()
	blocked := false
	for _, i := range m.EPC.PagesOf(r.Slot(0).EID) {
		if ent := m.EPC.Entry(i); ent.Vaddr == dataVaddr(0, 0) && ent.Type == isa.PTReg {
			blocked = ent.Blocked
		}
	}
	if !blocked {
		t.Fatalf("outer data page not left blocked after refused EWB")
	}
	// A well-behaved retry (with IPIs) completes the eviction.
	if err := r.Step(Op{Kind: OpEvict, Slot: 0, A: 0}); err != nil {
		t.Fatalf("recovery eviction diverged: %v", err)
	}
	if r.Blob(dataVaddr(0, 0)) == nil {
		t.Fatalf("recovery eviction did not produce a blob")
	}
}

// TestInnerAwareTrackingRequired pins down §IV-E: a core that EENTERed an
// inner enclave *directly* (no suspended outer frame) holds translations for
// outer pages via the Figure-6 branch, so evicting the outer page must shoot
// it down. The nested tracker includes the core; baseline SGX's tracker
// misses it, and only the EWB audit then saves the invariant — by refusing.
func TestInnerAwareTrackingRequired(t *testing.T) {
	r := NewRunner(2, false)
	ops := []Op{
		{Kind: OpBuild, Slot: 0},
		{Kind: OpBuild, Slot: 1},
		{Kind: OpAssociate, Slot: 1, A: 0},
		{Kind: OpEnter, Core: 1, Slot: 1}, // directly into the INNER enclave
		{Kind: OpRead, Core: 1, A: 0},     // read outer data0 via Figure-6
	}
	if _, err := r.RunOps(ops); err != nil {
		t.Fatalf("lockstep divergence: %v", err)
	}
	m := r.Machine()
	outer := r.Slot(0)

	hasCore := func(cores []*sgx.Core, id int) bool {
		for _, c := range cores {
			if c.ID == id {
				return true
			}
		}
		return false
	}
	if !hasCore(m.ETrack(outer), 1) {
		t.Fatalf("nested tracker does not include core 1, which holds an outer translation")
	}

	// Baseline SGX tracking misses the inner core entirely.
	m.Tracker = sgx.BaselineTracker{}
	baseCores := m.ETrack(outer)
	if hasCore(baseCores, 1) {
		t.Fatalf("baseline tracker unexpectedly includes core 1 (it has no context in the outer)")
	}
	// Follow the baseline protocol faithfully: block, shoot down only the
	// (insufficient) tracked set, attempt EWB. The conservative EWB audit
	// must refuse rather than evict under core 1's live translation.
	var pageIdx = -1
	for _, i := range m.EPC.PagesOf(outer.EID) {
		if ent := m.EPC.Entry(i); ent.Type == isa.PTReg && ent.Vaddr == dataVaddr(0, 0) {
			pageIdx = i
		}
	}
	if err := m.EBlock(pageIdx); err != nil {
		t.Fatalf("EBLOCK: %v", err)
	}
	for _, c := range baseCores {
		m.ShootdownFor(c, outer.EID)
	}
	if _, err := m.EWB(pageIdx, trace.NoCore); !isa.IsFault(err, isa.FaultGP) {
		t.Fatalf("EWB with baseline tracking: got %v, want #GP (incomplete shootdown)", err)
	}
}

// TestStaleTLBInjectionCaughtByAudit verifies the invariant audit itself has
// teeth: an out-of-thin-air TLB entry mapping PRM at an out-of-ELRANGE vaddr
// (which no validator would ever produce) must trip invariant 2.
func TestStaleTLBInjectionCaughtByAudit(t *testing.T) {
	r := NewRunner(2, false)
	ops := []Op{
		{Kind: OpBuild, Slot: 0},
		{Kind: OpEnter, Core: 0, Slot: 0},
	}
	if _, err := r.RunOps(ops); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := r.AuditInvariants(); err != nil {
		t.Fatalf("clean state fails audit: %v", err)
	}
	m := r.Machine()
	secsPA := m.EPC.AddrOf(m.EPC.PagesOf(r.Slot(0).EID)[0])
	m.Core(0).TLB.Insert(tlb.Entry{VPN: unsecVBase.VPN(), PPN: secsPA.PPN(), Perms: isa.PermRW})
	if err := r.AuditInvariants(); err == nil {
		t.Fatalf("audit missed an injected stale PRM translation")
	} else {
		t.Logf("audit caught injection: %v", err)
	}
}

// TestELDUReplayDenied evicts a page and then replays its sealed blob: the
// first reload must succeed, the second must fail the freshness check with
// the typed ErrBlobReplay detection — the kernel cannot roll an enclave page
// back, and the rejection is distinguishable from a generic integrity fault.
func TestELDUReplayDenied(t *testing.T) {
	r := NewRunner(2, false)
	ops := []Op{
		{Kind: OpBuild, Slot: 0},
		{Kind: OpEvict, Slot: 0, A: 0},
	}
	if _, err := r.RunOps(ops); err != nil {
		t.Fatalf("setup: %v", err)
	}
	blob := r.Blob(dataVaddr(0, 0))
	if blob == nil {
		t.Fatalf("eviction produced no blob")
	}
	m := r.Machine()
	if _, err := m.ELDU(blob, trace.NoCore); err != nil {
		t.Fatalf("first ELDU: %v", err)
	}
	if _, err := m.ELDU(blob, trace.NoCore); !errors.Is(err, sgx.ErrBlobReplay) {
		t.Fatalf("replayed ELDU: got %v, want ErrBlobReplay", err)
	}
}

// TestForcedEPCMMismatchAborts forges a mapping from one enclave's vaddr to
// an unrelated enclave's EPC frame: the Figure-6 owner check must abort the
// access (all-ones read), in lockstep with the oracle.
func TestForcedEPCMMismatchAborts(t *testing.T) {
	r := NewRunner(2, false)
	ops := []Op{
		{Kind: OpBuild, Slot: 0},
		{Kind: OpBuild, Slot: 1},
		{Kind: OpEnter, Core: 0, Slot: 0},
	}
	if _, err := r.RunOps(ops); err != nil {
		t.Fatalf("setup: %v", err)
	}
	m := r.Machine()
	var victimPA isa.PAddr
	for _, i := range m.EPC.PagesOf(r.Slot(1).EID) {
		if ent := m.EPC.Entry(i); ent.Type == isa.PTReg && ent.Vaddr == dataVaddr(1, 0) {
			victimPA = m.EPC.AddrOf(i)
		}
	}
	r.pt.Map(dataVaddr(0, 0), victimPA, isa.PermRW)
	if err := r.Step(Op{Kind: OpRead, Core: 0, A: 0}); err != nil {
		t.Fatalf("lockstep divergence on forged mapping: %v", err)
	}
	var buf [8]byte
	if err := m.Core(0).ReadInto(dataVaddr(0, 0), buf[:]); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !allFF(buf[:]) {
		t.Fatalf("forged cross-enclave mapping read %x, want abort-page 0xFF", buf)
	}
}

// --- random-vs-exhaustive comparison -----------------------------------
//
// The acceptance argument for the systematic explorer: two planted bugs
// that require a specific ~6-op interleaving are invisible to the
// 5000-schedule random pass at the same scope (same alphabet, same depth),
// but the exhaustive pass finds both. Random sampling at 35^8 possible
// depth-8 schedules has ~1e-8 odds per draw of hitting a fixed 6-op
// subsequence; exhaustive enumeration covers it by construction.

// plantedBug describes one injected machine defect for the comparison.
type plantedBug struct {
	name   string
	plant  func(r *Runner) // applied to a fresh runner before any op runs
	minOps int             // length of the shortest triggering interleaving
}

func plantedBugs() []plantedBug {
	return []plantedBug{
		{
			// Bug 1: the Figure-6 step-⑤ outer-ELRANGE branch inverted. Needs
			// build+build+associate+enter-inner+inner-reads-outer — the access
			// validates on the correct machine, aborts on the broken one.
			name:   "flipped-outer-elrange",
			plant:  func(r *Runner) { r.SetValidator(flippedOuterELRANGE{}) },
			minOps: 5,
		},
		{
			// Bug 2: ETRACK thread tracking reverted to inner-oblivious
			// baseline SGX (§IV-E). Needs a core inside an enclave nested
			// under the evicted page's owner: the baseline tracker skips its
			// shootdown IPI and the core's TLB keeps a stale entry.
			name:   "baseline-etrack-no-nested-shootdown",
			plant:  func(r *Runner) { r.Machine().Tracker = sgx.BaselineTracker{} },
			minOps: 5,
		},
	}
}

// uniformSchedule draws n ops uniformly from the alphabet — the "equal
// scope" random baseline (the weighted generator in gen.go covers the full
// 4x4 topology, which would not be an apples-to-apples comparison).
func uniformSchedule(rng *rand.Rand, alphabet []Op, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return ops
}

// TestRandomVsExhaustive is the comparison table: per planted bug, 5000
// uniform random schedules at the explorer's exact scope (alphabet, depth 8)
// versus the exhaustive pass.
func TestRandomVsExhaustive(t *testing.T) {
	const (
		randomSchedules = 5000
		depth           = 8
	)
	alphabet := DefaultAlphabet(2, 2)
	type row struct {
		bug          plantedBug
		randomCaught int
		exhaustive   *Counterexample
		stats        *ExploreStats
	}
	var table []row
	for _, bug := range plantedBugs() {
		nRandom := randomSchedules
		if testing.Short() {
			nRandom = 500
		}
		rng := rand.New(rand.NewSource(1))
		caught := 0
		for i := 0; i < nRandom; i++ {
			r := NewRunner(2, false)
			bug.plant(r)
			if _, err := r.RunOps(uniformSchedule(rng, alphabet, depth)); err != nil {
				caught++
			}
		}

		stats, ce := Explore(ExploreConfig{
			Depth: depth, MaxDepth: 2, Alphabet: alphabet,
			NewRunner: func() *Runner {
				r := NewRunner(2, false)
				bug.plant(r)
				return r
			},
		})
		if ce == nil {
			t.Errorf("%s: exhaustive pass at depth %d missed the planted bug (%s)",
				bug.name, depth, stats.StatsLine())
			continue
		}
		// The minimized counterexample must implicate the *injected* defect:
		// it diverges on a planted runner and replays cleanly on a correct one.
		if _, err := NewRunner(2, false).RunOps(ce.Shrunk.Ops); err != nil {
			t.Errorf("%s: counterexample also diverges on the correct machine: %v", bug.name, err)
		}
		if len(ce.Shrunk.Ops) < bug.minOps {
			t.Errorf("%s: shrunk counterexample has %d ops, below the structural minimum %d:\n%s",
				bug.name, len(ce.Shrunk.Ops), bug.minOps, FormatRegression(ce.Shrunk))
		}
		table = append(table, row{bug: bug, randomCaught: caught, exhaustive: ce, stats: stats})
	}

	missedByRandom := 0
	t.Logf("random-vs-exhaustive at 2 cores x 2 slots, depth %d, %d-op alphabet:", depth, len(alphabet))
	t.Logf("%-40s %-22s %s", "planted bug", "random (5000 scheds)", "exhaustive")
	for _, r := range table {
		verdictR := fmt.Sprintf("caught %d/5000", r.randomCaught)
		verdictE := fmt.Sprintf("caught (min %d ops, %d transitions)",
			len(r.exhaustive.Shrunk.Ops), r.stats.Transitions)
		t.Logf("%-40s %-22s %s", r.bug.name, verdictR, verdictE)
		if r.randomCaught == 0 {
			missedByRandom++
		}
		t.Logf("  minimal counterexample:\n%s", FormatRegression(r.exhaustive.Shrunk))
	}
	if !testing.Short() && missedByRandom < 2 {
		t.Errorf("want >=2 planted bugs missed by random sampling but caught exhaustively, got %d", missedByRandom)
	}
}
