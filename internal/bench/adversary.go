package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"nestedenclave/internal/adversary"
	"nestedenclave/internal/channel"
	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// This file is the adversarial-kernel campaign: every strategy in the
// internal/adversary catalog executed end to end against a live rig, with the
// run classified as defended (the workload completed with correct data and
// the machine audits stay clean), detected (a typed detection error surfaced
// before any wrong data was returned), or breach (anything else — which
// fails the campaign test). The scoreboard is the repo's Table-VII-style
// security-analysis artifact for a kernel that attacks instead of crashes.

// AttackVerdict is the outcome class of one attack run.
type AttackVerdict string

const (
	// VerdictDefended: the attack fired and the workload still completed
	// with correct data; invariant and TLB audits are clean.
	VerdictDefended AttackVerdict = "defended"
	// VerdictDetected: a typed detection error surfaced before any wrong
	// data crossed a trust boundary.
	VerdictDetected AttackVerdict = "detected"
	// VerdictBreach: wrong data was returned or an audit failed — the
	// detect-or-defend contract is broken.
	VerdictBreach AttackVerdict = "breach"
)

// AttackResult is one strategy's campaign entry.
type AttackResult struct {
	Program adversary.Program
	Verdict AttackVerdict
	// Detection names the detector that fired ("" when defended):
	// blob-version-counter, channel-sequence, scheduling-guard,
	// figure6-fault, enclave-integrity.
	Detection string
	// DetectLatency is simulated cycles from the first fired attack action
	// to the detection error being in hand; -1 when defended.
	DetectLatency int64
	// Attacks is how many attack actions the engine landed.
	Attacks int
	// Transcript is the engine's deterministic replay artifact.
	Transcript string
	// Err is the detection error (detected) or the violation list (breach).
	Err error
}

// attackOutcome is what a scenario reports back to RunAttack.
type attackOutcome struct {
	// detection is the typed error that surfaced, nil when the run was
	// defended end to end.
	detection error
	// detectAt is the simulated cycle the detection error was observed.
	detectAt int64
	// violations lists detect-or-defend contract breaches (wrong data,
	// silent corruption). Any entry makes the verdict a breach.
	violations []string
}

type attackScenario func(r *Rig, eng *adversary.Engine) (attackOutcome, error)

// DefaultProgram returns the campaign's canonical program for a strategy:
// the op budget each scenario is scripted against.
func DefaultProgram(s adversary.Strategy, seed uint64) adversary.Program {
	ops := 1
	switch s {
	case adversary.StratRemapUnderTLB, adversary.StratIPCReorder:
		ops = 2
	case adversary.StratAEXPreempt:
		ops = 3
	case adversary.StratDropShootdown:
		ops = 4
	}
	return adversary.Program{Seed: seed, Strategy: s, Ops: ops}
}

// RunAttack executes one attack program end to end on a fresh rig and
// classifies the outcome. A run where the attack never fires is an error,
// not a verdict — a vacuous campaign must not read as a safe one.
func RunAttack(p adversary.Program) (*AttackResult, error) {
	scn, ok := attackScenarios()[p.Strategy]
	if !ok {
		return nil, fmt.Errorf("bench: no scenario for strategy %q", p.Strategy)
	}
	r, err := NewRig(SmallMachine())
	if err != nil {
		return nil, err
	}
	eng, err := adversary.New(p, r.M.Rec)
	if err != nil {
		return nil, err
	}
	out, err := scn(r, eng)
	if err != nil {
		return nil, fmt.Errorf("bench: %s harness: %w", p.Strategy, err)
	}
	res := &AttackResult{Program: p, Attacks: eng.Fired(), Transcript: eng.Transcript(), DetectLatency: -1}
	if res.Attacks == 0 {
		return nil, fmt.Errorf("bench: %s: attack never fired (vacuous run)", p.Strategy)
	}
	violations := append([]string(nil), out.violations...)
	if out.detection == nil {
		// A defended verdict additionally requires the machine to audit
		// clean: the four §VII-A invariants, over every TLB entry.
		violations = append(violations, r.M.AuditInvariants()...)
	}
	switch {
	case len(violations) > 0:
		res.Verdict = VerdictBreach
		res.Err = fmt.Errorf("bench: %s: %s", p.Strategy, strings.Join(violations, "; "))
	case out.detection != nil:
		res.Verdict = VerdictDetected
		res.Err = out.detection
		res.Detection = classifyDetection(out.detection)
		if first := eng.FirstAttackCycle(); first >= 0 && out.detectAt >= first {
			res.DetectLatency = out.detectAt - first
		}
	default:
		res.Verdict = VerdictDefended
	}
	return res, nil
}

// RunCampaign runs every catalog strategy with its default program.
func RunCampaign(seed uint64) ([]*AttackResult, error) {
	var out []*AttackResult
	for _, s := range adversary.Strategies() {
		res, err := RunAttack(DefaultProgram(s, seed))
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Scoreboard renders campaign results as the per-strategy verdict table.
func Scoreboard(results []*AttackResult) *Table {
	t := &Table{
		Title:   "Adversarial kernel campaign (defend-or-detect)",
		Headers: []string{"strategy", "verdict", "detector", "attacks", "detect latency (cyc)"},
		Notes: []string{
			"detect latency: simulated cycles from the first attack action to the typed error",
			"replay any row with: repro -adversary -strategy <s> -seed <seed> -ops <n>",
		},
	}
	for _, r := range results {
		lat := "-"
		if r.DetectLatency >= 0 {
			lat = fmt.Sprintf("%d", r.DetectLatency)
		}
		det := r.Detection
		if det == "" {
			det = "-"
		}
		t.AddRow(string(r.Program.Strategy), string(r.Verdict), det, fmt.Sprintf("%d", r.Attacks), lat)
	}
	return t
}

// classifyDetection names the detector a typed error came from.
func classifyDetection(err error) string {
	switch {
	case errors.Is(err, sgx.ErrBlobReplay):
		return "blob-version-counter"
	case errors.Is(err, channel.ErrReplayDetected):
		return "channel-sequence"
	case errors.Is(err, sdk.ErrContextLost):
		return "scheduling-guard"
	case errors.Is(err, errKVSentinel):
		return "enclave-integrity"
	}
	var f *isa.Fault
	if errors.As(err, &f) {
		return "figure6-fault"
	}
	return "typed-error"
}

// --- victim workload -------------------------------------------------------

// kvBytes is the victim buffer size: one read chunk, well inside a page.
const kvBytes = 64

// kvMagic is the integrity sentinel the enclave writes at the head of its
// buffer. Abort-page semantics turn a successfully contained mapping attack
// into 0xFF filler; the sentinel is how trusted code refuses to treat that
// filler as its own data (the enclave-software layer of defense the paper's
// §VII assumes).
var kvMagic = []byte{0x4e, 0x45, 0x53, 0x43, 0x4c, 0x41, 0x56, 0x45}

// errKVSentinel is the typed enclave-level integrity detection.
var errKVSentinel = errors.New("kv: buffer integrity sentinel lost")

// kvVictim is a loaded single-buffer enclave: the minimal stateful workload
// every paging/scheduling attack targets.
type kvVictim struct {
	encl *sdk.Enclave
	bufV isa.VAddr
}

func (kv *kvVictim) vpage() isa.VAddr { return kv.bufV.PageBase() }

// pattern fills the non-sentinel part of the buffer with a recognizable
// byte, so wrong-data outcomes are unambiguous.
func kvPayload(b byte) []byte {
	out := append([]byte(nil), kvMagic...)
	for len(out) < kvBytes {
		out = append(out, b)
	}
	return out
}

// buildKV loads the victim enclave and allocates its buffer.
//
// ECalls:
//
//	put   — store the 64-byte argument in the trusted buffer
//	get   — read the buffer back, verifying the integrity sentinel
//	churn — re-read the buffer n times, verifying content each pass
//	        (a critical window for scheduler attacks)
func buildKV(r *Rig, name string, base isa.VAddr) (*kvVictim, error) {
	kv := &kvVictim{}
	img := sdk.NewImage(name, base, sdk.DefaultLayout())
	img.RegisterECall("init", func(env *sdk.Env, args []byte) ([]byte, error) {
		v, err := env.Malloc(kvBytes)
		if err != nil {
			return nil, err
		}
		kv.bufV = v
		return nil, nil
	})
	img.RegisterECall("put", func(env *sdk.Env, args []byte) ([]byte, error) {
		return nil, env.Write(kv.bufV, args)
	})
	img.RegisterECall("get", func(env *sdk.Env, args []byte) ([]byte, error) {
		b, err := env.Read(kv.bufV, kvBytes)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b[:len(kvMagic)], kvMagic) {
			return nil, errKVSentinel
		}
		return b, nil
	})
	img.RegisterECall("churn", func(env *sdk.Env, args []byte) ([]byte, error) {
		var b []byte
		for i := 0; i < 6; i++ {
			var err error
			b, err = env.Read(kv.bufV, kvBytes)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(b, args) {
				return nil, fmt.Errorf("kv: churn pass %d read wrong data: %w", i, errKVSentinel)
			}
		}
		return b, nil
	})
	encl, err := r.LoadSolo(img)
	if err != nil {
		return nil, err
	}
	kv.encl = encl
	if _, err := encl.ECall("init", nil); err != nil {
		return nil, err
	}
	return kv, nil
}

// attackerFrame returns a DRAM physical page outside the PRM — memory the
// attacker fully controls — on the SmallMachine layout (PRM is 16..48 MiB,
// DRAM 64 MiB).
func attackerFrame() isa.PAddr { return isa.PAddr(56 << 20) }

// --- scenarios -------------------------------------------------------------

func attackScenarios() map[adversary.Strategy]attackScenario {
	return map[adversary.Strategy]attackScenario{
		adversary.StratDoubleMap:        scnDoubleMap,
		adversary.StratRemapUnderTLB:    scnRemapUnderTLB,
		adversary.StratEldRedirect:      scnEldRedirect,
		adversary.StratBlobReplay:       scnBlobReplay,
		adversary.StratBlobCrossWire:    scnBlobCrossWire,
		adversary.StratDropShootdown:    scnDropShootdown,
		adversary.StratReorderShootdown: scnReorderShootdown,
		adversary.StratAEXPreempt:       scnAEXPreempt,
		adversary.StratEresumeWrongCore: scnEresumeWrongCore,
		adversary.StratIPCReplay:        scnIPCReplay,
		adversary.StratIPCReorder:       scnIPCReorder,
		adversary.StratIPCReorderDeep:   scnIPCReorderDeep,
	}
}

// epcAddr returns the physical address of EPC page i.
func (r *Rig) epcAddr(i int) isa.PAddr { return epc.PageAddr(r.M.DRAM.Layout(), i) }

// scnDoubleMap: the kernel maps an attacker virtual page at the victim's
// resident EPC frame and reads it from outside the enclave. Defended:
// non-enclave access to the PRM returns abort-page 0xFF, and the victim's
// data stays intact.
func scnDoubleMap(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	want := kvPayload(0xA1)
	if _, err := kv.encl.ECall("put", want); err != nil {
		return out, err
	}
	idx, found := r.M.FindRegPage(kv.encl.SECS(), kv.vpage())
	if !found {
		return out, fmt.Errorf("victim page not resident")
	}
	pa := r.epcAddr(idx)
	const alias = isa.VAddr(0x7000_0000)
	if !eng.Spend("host.mmap", fmt.Sprintf("alias %#x -> victim EPC frame %#x", uint64(alias), uint64(pa))) {
		return out, fmt.Errorf("op budget empty before the attack")
	}
	r.Host.Proc.MapFixed(alias, pa, isa.PermR)
	c := r.M.Core(0)
	if err := r.K.Schedule(c, r.Host.Proc); err != nil {
		return out, err
	}
	leaked, err := c.Read(alias, kvBytes)
	if err != nil {
		return out, fmt.Errorf("aliased read: %w", err)
	}
	for _, b := range leaked {
		if b != 0xFF {
			out.violations = append(out.violations,
				fmt.Sprintf("double-mapped read leaked enclave bytes (%x...)", leaked[:8]))
			break
		}
	}
	got, err := kv.encl.ECall("get", nil)
	if err != nil {
		out.violations = append(out.violations, fmt.Sprintf("victim lost its data: %v", err))
	} else if !bytes.Equal(got, want) {
		out.violations = append(out.violations, "victim data corrupted by double mapping")
	}
	return out, nil
}

// scnRemapUnderTLB: the kernel rewrites the victim's PTE to an attacker
// frame while the victim core's TLB still holds the honest translation, then
// forces a flush. Reads under the stale TLB stay correct (defended window);
// the first re-walk of the poisoned PTE is caught by Figure-6 validation
// (ELRANGE must be EPC-backed) — detected, and the data recoverable once an
// honest mapping is restored.
func scnRemapUnderTLB(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	want := kvPayload(0xB2)
	if _, err := kv.encl.ECall("put", want); err != nil {
		return out, err
	}
	eng.SetRemapTarget(r.Host.Proc.PageTable(), kv.vpage(), attackerFrame(), isa.PermRW)
	r.M.SetHostile(eng)
	_, cerr := kv.encl.ECall("churn", want)
	out.detectAt = r.M.Rec.Cycles()
	if cerr == nil {
		out.violations = append(out.violations, "poisoned PTE was never observed (flush did not land)")
		return out, nil
	}
	if errors.Is(cerr, errKVSentinel) {
		out.violations = append(out.violations, fmt.Sprintf("silent wrong data inside the enclave: %v", cerr))
		return out, nil
	}
	out.detection = cerr
	// The page never left the EPC: an honest kernel repairs the PTE and the
	// data is still there.
	idx, found := r.M.FindRegPage(kv.encl.SECS(), kv.vpage())
	if !found {
		out.violations = append(out.violations, "victim page vanished from the EPC")
		return out, nil
	}
	r.Host.Proc.MapFixed(kv.vpage(), r.epcAddr(idx), isa.PermRW)
	got, gerr := kv.encl.ECall("get", nil)
	if gerr != nil || !bytes.Equal(got, want) {
		out.violations = append(out.violations, fmt.Sprintf("data unrecoverable after honest remap: %v", gerr))
	}
	return out, nil
}

// scnEldRedirect: the pager reloads the evicted blob honestly but points the
// repaired PTE at an attacker frame. Figure-6 validation faults the first
// access (ELRANGE not EPC-backed) — detected; the honestly loaded page is
// still in the EPC, so an honest mapping recovers the data.
func scnEldRedirect(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	r.M.SetHostile(eng)
	eng.SetRedirect(attackerFrame())
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	want := kvPayload(0xC3)
	if _, err := kv.encl.ECall("put", want); err != nil {
		return out, err
	}
	if err := r.K.Driver.EvictPage(r.Host.Proc, kv.encl.SECS(), kv.vpage()); err != nil {
		return out, fmt.Errorf("evict: %w", err)
	}
	_, gerr := kv.encl.ECall("get", nil)
	out.detectAt = r.M.Rec.Cycles()
	if gerr == nil {
		out.violations = append(out.violations, "redirected reload went unnoticed")
		return out, nil
	}
	out.detection = gerr
	idx, found := r.M.FindRegPage(kv.encl.SECS(), kv.vpage())
	if !found {
		out.violations = append(out.violations, "reloaded page missing from the EPC")
		return out, nil
	}
	r.Host.Proc.MapFixed(kv.vpage(), r.epcAddr(idx), isa.PermRW)
	got, rerr := kv.encl.ECall("get", nil)
	if rerr != nil || !bytes.Equal(got, want) {
		out.violations = append(out.violations, fmt.Sprintf("data unrecoverable after honest remap: %v", rerr))
	}
	return out, nil
}

// scnBlobReplay: evict, reload, mutate, evict again — then answer the next
// fault with the hoarded first-generation blob. ELDU's monotonic version
// counter rejects it (typed ErrBlobReplay); with the attack budget spent,
// the honest retry recovers the current data.
func scnBlobReplay(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	r.M.SetHostile(eng)
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	v1, v2 := kvPayload(0xD1), kvPayload(0xD2)
	if _, err := kv.encl.ECall("put", v1); err != nil {
		return out, err
	}
	evict := func() error { return r.K.Driver.EvictPage(r.Host.Proc, kv.encl.SECS(), kv.vpage()) }
	if err := evict(); err != nil {
		return out, fmt.Errorf("evict v1: %w", err)
	}
	got, err := kv.encl.ECall("get", nil) // honest reload: the capture is still current
	if err != nil || !bytes.Equal(got, v1) {
		return out, fmt.Errorf("honest reload of v1 failed: %v", err)
	}
	if _, err := kv.encl.ECall("put", v2); err != nil {
		return out, err
	}
	if err := evict(); err != nil {
		return out, fmt.Errorf("evict v2: %w", err)
	}
	stale, gerr := kv.encl.ECall("get", nil) // kernel answers with the v1 blob
	out.detectAt = r.M.Rec.Cycles()
	if gerr == nil {
		if bytes.Equal(stale, v1) {
			out.violations = append(out.violations, "stale v1 blob accepted: rollback delivered to caller")
		} else {
			out.violations = append(out.violations, "stale blob replay went unnoticed")
		}
		return out, nil
	}
	ev := r.K.Driver.DetectionEvidence()
	if ev == nil || !errors.Is(ev, sgx.ErrBlobReplay) {
		return out, fmt.Errorf("reload failed (%v) but no blob-replay evidence recorded", gerr)
	}
	out.detection = ev
	got, rerr := kv.encl.ECall("get", nil) // budget spent: honest reload, current data
	if rerr != nil || !bytes.Equal(got, v2) {
		out.violations = append(out.violations, fmt.Sprintf("current data unrecoverable after detection: %v", rerr))
	}
	return out, nil
}

// scnBlobCrossWire: answer enclave A's page fault with enclave B's fresh,
// authentic blob. ELDU accepts it (it is genuine — for B), but the EPCM
// pins every EPC page to one (owner, vaddr): A's access aborts to 0xFF and
// the enclave's own sentinel refuses the filler. The stolen load consumed
// B's one-time slot, so B's next honest reload trips the freshness counter —
// the typed detection. Both enclaves' data is recoverable by an honest
// kernel afterwards.
func scnBlobCrossWire(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	r.M.SetHostile(eng)
	kvA, err := buildKV(r, "victim-a", 0x1000_0000)
	if err != nil {
		return out, err
	}
	kvB, err := buildKV(r, "victim-b", 0x2000_0000)
	if err != nil {
		return out, err
	}
	wantA, wantB := kvPayload(0xAA), kvPayload(0xBB)
	if _, err := kvA.encl.ECall("put", wantA); err != nil {
		return out, err
	}
	if _, err := kvB.encl.ECall("put", wantB); err != nil {
		return out, err
	}
	if err := r.K.Driver.EvictPage(r.Host.Proc, kvA.encl.SECS(), kvA.vpage()); err != nil {
		return out, fmt.Errorf("evict A: %w", err)
	}
	if err := r.K.Driver.EvictPage(r.Host.Proc, kvB.encl.SECS(), kvB.vpage()); err != nil {
		return out, fmt.Errorf("evict B: %w", err)
	}
	// A's fault is answered with B's blob: the EPCM makes A's reads abort,
	// and the sentinel check inside A refuses the 0xFF filler.
	gotA, aerr := kvA.encl.ECall("get", nil)
	if aerr == nil {
		if bytes.Equal(gotA, wantB) {
			out.violations = append(out.violations, "enclave A read enclave B's plaintext")
		} else {
			out.violations = append(out.violations, "cross-wired blob went unnoticed inside A")
		}
		return out, nil
	}
	if !errors.Is(aerr, errKVSentinel) {
		// Acceptable alternative: the access faulted instead of aborting.
		var f *isa.Fault
		if !errors.As(aerr, &f) {
			return out, fmt.Errorf("unexpected A failure mode: %w", aerr)
		}
	}
	// B's honest reload now finds its one-time slot spent: typed detection.
	_, berr := kvB.encl.ECall("get", nil)
	out.detectAt = r.M.Rec.Cycles()
	if berr == nil {
		out.violations = append(out.violations, "B reloaded from a consumed slot without detection")
		return out, nil
	}
	ev := r.K.Driver.DetectionEvidence()
	if ev == nil || !errors.Is(ev, sgx.ErrBlobReplay) {
		return out, fmt.Errorf("B reload failed (%v) but no blob-replay evidence recorded", berr)
	}
	out.detection = ev
	// Honest-kernel recovery. A: its genuine blob was preserved; force the
	// fault again and reload clean (attack budget is spent).
	r.Host.Proc.PageTable().MarkNotPresent(kvA.vpage())
	gotA, rerr := kvA.encl.ECall("get", nil)
	if rerr != nil || !bytes.Equal(gotA, wantA) {
		out.violations = append(out.violations, fmt.Sprintf("A unrecoverable after detection: %v", rerr))
	}
	// B: the stolen load put B's genuine page in the EPC (owned by B, at B's
	// vaddr); an honest mapping brings it back.
	idx, found := r.M.FindRegPage(kvB.encl.SECS(), kvB.vpage())
	if !found {
		out.violations = append(out.violations, "B's data lost entirely")
		return out, nil
	}
	r.Host.Proc.MapFixed(kvB.vpage(), r.epcAddr(idx), isa.PermRW)
	gotB, rerr := kvB.encl.ECall("get", nil)
	if rerr != nil || !bytes.Equal(gotB, wantB) {
		out.violations = append(out.violations, fmt.Sprintf("B unrecoverable after detection: %v", rerr))
	}
	return out, nil
}

// pinReader parks core 0 inside the victim enclave with a warm TLB entry
// for the buffer page — the cross-core reader the shootdown attacks target.
// Returns the pinned core; the caller must m.EExit(c, true) when done.
func pinReader(r *Rig, kv *kvVictim, want []byte) (*sgx.Core, error) {
	c := r.M.Core(0)
	if err := r.K.Schedule(c, r.Host.Proc); err != nil {
		return nil, err
	}
	img := kv.encl.Image()
	tcsV := img.HeapBase() + isa.VAddr(img.HeapSize())
	if err := r.M.EEnter(c, kv.encl.SECS(), tcsV, false); err != nil {
		return nil, err
	}
	got, err := c.Read(kv.bufV, kvBytes)
	if err != nil {
		_ = r.M.EExit(c, true)
		return nil, fmt.Errorf("pinned warm-up read: %w", err)
	}
	if !bytes.Equal(got, want) {
		_ = r.M.EExit(c, true)
		return nil, fmt.Errorf("pinned warm-up read returned wrong data")
	}
	return c, nil
}

// scnDropShootdown: the kernel suppresses the ETRACK shootdown IPIs while a
// cross-core reader holds a live translation. The hardware's EWB TLB scan
// refuses the eviction, and when the kernel escalates to a raw EREMOVE of
// the page, EREMOVE refuses too, because a running thread can still reach
// it — defended.
func scnDropShootdown(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	r.M.SetHostile(eng)
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	want := kvPayload(0xE5)
	if _, err := kv.encl.ECall("put", want); err != nil {
		return out, err
	}
	c, err := pinReader(r, kv, want)
	if err != nil {
		return out, err
	}
	defer func() { _ = r.M.EExit(c, true) }()
	if everr := r.K.Driver.EvictPage(r.Host.Proc, kv.encl.SECS(), kv.vpage()); everr == nil {
		out.violations = append(out.violations, "EWB completed with a suppressed shootdown outstanding")
		return out, nil
	}
	// Escalation: the malicious kernel removes the page outright, bypassing
	// the eviction protocol the hardware just refused.
	idx, found := r.M.FindRegPage(kv.encl.SECS(), kv.vpage())
	if !found {
		return out, fmt.Errorf("victim page not resident after refused EWB")
	}
	if rerr := r.M.ERemove(idx); rerr == nil {
		out.violations = append(out.violations, "EREMOVE freed a page under a live translation")
	}
	return out, nil
}

// scnReorderShootdown: the kernel delivers the shootdown IPIs only after the
// first EWB attempt instead of before it. The hardware refuses the premature
// EWB; once the late IPIs land the retried eviction succeeds, and the pinned
// reader's next access faults cleanly into an honest reload — defended, with
// correct data end to end.
func scnReorderShootdown(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	r.M.SetHostile(eng)
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	want := kvPayload(0xF6)
	if _, err := kv.encl.ECall("put", want); err != nil {
		return out, err
	}
	c, err := pinReader(r, kv, want)
	if err != nil {
		return out, err
	}
	defer func() { _ = r.M.EExit(c, true) }()
	if everr := r.K.Driver.EvictPage(r.Host.Proc, kv.encl.SECS(), kv.vpage()); everr == nil {
		out.violations = append(out.violations, "EWB completed before any shootdown was delivered")
		return out, nil
	}
	// The attack budget is spent: the retried eviction delivers the IPIs
	// (late), and must now succeed.
	if everr := r.K.Driver.EvictPage(r.Host.Proc, kv.encl.SECS(), kv.vpage()); everr != nil {
		return out, fmt.Errorf("eviction failed even with late IPIs delivered: %v", everr)
	}
	got, rerr := c.Read(kv.bufV, kvBytes)
	if rerr != nil {
		out.violations = append(out.violations, fmt.Sprintf("pinned reader could not recover after late shootdown: %v", rerr))
		return out, nil
	}
	if !bytes.Equal(got, want) {
		out.violations = append(out.violations, "pinned reader read wrong data after late shootdown")
	}
	return out, nil
}

// scnAEXPreempt: targeted AEX+ERESUME preemptions inside the victim's
// critical read loop. The transition machinery saves, scrubs, and restores
// the context; the workload must complete with correct data — defended.
func scnAEXPreempt(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	want := kvPayload(0x17)
	if _, err := kv.encl.ECall("put", want); err != nil {
		return out, err
	}
	r.M.SetHostile(eng)
	got, cerr := kv.encl.ECall("churn", want)
	if cerr != nil {
		out.violations = append(out.violations, fmt.Sprintf("targeted preemption broke an honest call: %v", cerr))
		return out, nil
	}
	if !bytes.Equal(got, want) {
		out.violations = append(out.violations, "churn returned wrong data under targeted preemption")
	}
	return out, nil
}

// scnEresumeWrongCore: the scheduler AEXes the victim mid-call and ERESUMEs
// its TCS on a different core, leaving the original thread on a dead
// context. The trusted runtime's context guard withholds the data and
// surfaces a typed ContextLost — detected.
func scnEresumeWrongCore(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	kv, err := buildKV(r, "victim", 0x1000_0000)
	if err != nil {
		return out, err
	}
	want := kvPayload(0x28)
	if _, err := kv.encl.ECall("put", want); err != nil {
		return out, err
	}
	r.M.SetHostile(eng)
	got, gerr := kv.encl.ECall("get", nil)
	out.detectAt = r.M.Rec.Cycles()
	if gerr == nil {
		if bytes.Equal(got, want) {
			out.violations = append(out.violations, "wrong-core ERESUME never landed")
		} else {
			out.violations = append(out.violations, "dead-context read returned data instead of an error")
		}
		return out, nil
	}
	if !errors.Is(gerr, sdk.ErrContextLost) {
		return out, fmt.Errorf("expected a context-lost detection, got: %w", gerr)
	}
	out.detection = gerr
	return out, nil
}

// advChannelKey is the shared channel key for the IPC scenarios.
var advChannelKey = [16]byte{0xAD}

// scnIPCReplay: the kernel re-delivers a long-since-delivered frame on the
// reliable channel. The receiver's sequence accounting flags any frame
// lagging more than the retransmit window — typed ErrReplayDetected.
func scnIPCReplay(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	return runIPCScenario(r, eng, "adv-replay", 20, true)
}

// scnIPCReorder: adjacent frames swapped in flight — disorder within the
// retransmit bound, which an honest kernel under load can also produce. The
// channel's stash + retransmit machinery must absorb it — defended.
func scnIPCReorder(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	return runIPCScenario(r, eng, "adv-reorder", 12, false)
}

// scnIPCReorderDeep: one frame withheld until it falls out of the sender's
// retransmit window. No honest kernel can reorder that deep; the failed
// retransmit is classified as a replay attack — detected.
func scnIPCReorderDeep(r *Rig, eng *adversary.Engine) (attackOutcome, error) {
	var out attackOutcome
	const winSize = 8
	tx, rx, err := advChannelPair(r, "adv-reorder-deep", winSize)
	if err != nil {
		return out, err
	}
	eng.SetChannel("adv-reorder-deep", winSize)
	r.M.SetHostile(eng)
	// Burst past the window before draining, so the withheld frame is
	// unrecoverable by the time its gap is discovered.
	for i := 0; i < 2*winSize; i++ {
		tx.Send([]byte(fmt.Sprintf("msg-%03d", i)))
	}
	next := 0
	for {
		pt, ok, rerr := rx.RecvRepaired(tx, 8)
		if rerr != nil {
			out.detectAt = r.M.Rec.Cycles()
			if !errors.Is(rerr, channel.ErrReplayDetected) {
				return out, fmt.Errorf("expected a replay detection, got: %w", rerr)
			}
			out.detection = rerr
			return out, nil
		}
		if !ok {
			out.violations = append(out.violations, "deep reorder drained without detection")
			return out, nil
		}
		if want := fmt.Sprintf("msg-%03d", next); string(pt) != want {
			out.violations = append(out.violations,
				fmt.Sprintf("out-of-order delivery before detection: got %q want %q", pt, want))
			return out, nil
		}
		next++
	}
}

// runIPCScenario drives a lockstep send/drain stream under the installed
// IPC adversary. expectDetect selects the contract: a typed replay
// detection must fire (true), or every frame must deliver in order (false).
func runIPCScenario(r *Rig, eng *adversary.Engine, name string, n int, expectDetect bool) (attackOutcome, error) {
	var out attackOutcome
	const winSize = 8
	tx, rx, err := advChannelPair(r, name, winSize)
	if err != nil {
		return out, err
	}
	eng.SetChannel(name, winSize)
	r.M.SetHostile(eng)
	next := 0
	for i := 0; i < n; i++ {
		tx.Send([]byte(fmt.Sprintf("msg-%03d", i)))
		for {
			pt, ok, rerr := rx.RecvRepaired(tx, 8)
			if rerr != nil {
				out.detectAt = r.M.Rec.Cycles()
				if !expectDetect {
					out.violations = append(out.violations,
						fmt.Sprintf("bounded disorder misclassified as an attack: %v", rerr))
					return out, nil
				}
				if !errors.Is(rerr, channel.ErrReplayDetected) {
					return out, fmt.Errorf("expected a replay detection, got: %w", rerr)
				}
				out.detection = rerr
				return out, nil
			}
			if !ok {
				break
			}
			if want := fmt.Sprintf("msg-%03d", next); string(pt) != want {
				out.violations = append(out.violations,
					fmt.Sprintf("frame %d delivered as %q", next, pt))
				return out, nil
			}
			next++
		}
	}
	if expectDetect {
		out.violations = append(out.violations, "replayed frame was never flagged")
		return out, nil
	}
	if next != n {
		out.violations = append(out.violations,
			fmt.Sprintf("only %d of %d frames delivered", next, n))
	}
	return out, nil
}

func advChannelPair(r *Rig, name string, winSize int) (tx, rx *channel.ReliableChannel, err error) {
	if tx, err = channel.NewReliable(r.K.IPC, name, advChannelKey, winSize); err != nil {
		return nil, nil, err
	}
	if rx, err = channel.NewReliable(r.K.IPC, name, advChannelKey, winSize); err != nil {
		return nil, nil, err
	}
	return tx, rx, nil
}
