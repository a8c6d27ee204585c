package bench

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nestedenclave/internal/adversary"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

// expectedVerdicts pins each strategy's outcome class and (for detections)
// the detector that must fire. A campaign drift here is a security-posture
// change and should be a deliberate edit, not an accident.
var expectedVerdicts = map[adversary.Strategy]struct {
	verdict  AttackVerdict
	detector string
}{
	adversary.StratDoubleMap:        {VerdictDefended, ""},
	adversary.StratRemapUnderTLB:    {VerdictDetected, "figure6-fault"},
	adversary.StratEldRedirect:      {VerdictDetected, "figure6-fault"},
	adversary.StratBlobReplay:       {VerdictDetected, "blob-version-counter"},
	adversary.StratBlobCrossWire:    {VerdictDetected, "blob-version-counter"},
	adversary.StratDropShootdown:    {VerdictDefended, ""},
	adversary.StratReorderShootdown: {VerdictDefended, ""},
	adversary.StratAEXPreempt:       {VerdictDefended, ""},
	adversary.StratEresumeWrongCore: {VerdictDetected, "scheduling-guard"},
	adversary.StratIPCReplay:        {VerdictDetected, "channel-sequence"},
	adversary.StratIPCReorder:       {VerdictDefended, ""},
	adversary.StratIPCReorderDeep:   {VerdictDetected, "channel-sequence"},
}

// TestAttackCampaign is the tentpole's end-to-end guarantee: every strategy
// in the catalog, run against a live rig, ends defended or detected — never
// a breach — and each detection comes from the expected detector.
func TestAttackCampaign(t *testing.T) {
	results, err := RunCampaign(0xad5eed)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(results) != len(adversary.Strategies()) {
		t.Fatalf("campaign ran %d strategies, want %d", len(results), len(adversary.Strategies()))
	}
	for _, res := range results {
		s := res.Program.Strategy
		want, ok := expectedVerdicts[s]
		if !ok {
			t.Errorf("%s: no expected verdict pinned", s)
			continue
		}
		if res.Verdict == VerdictBreach {
			t.Errorf("%s: BREACH: %v\ntranscript:\n%s", s, res.Err, res.Transcript)
			continue
		}
		if res.Verdict != want.verdict {
			t.Errorf("%s: verdict %s, want %s (err: %v)", s, res.Verdict, want.verdict, res.Err)
			continue
		}
		if res.Attacks == 0 {
			t.Errorf("%s: zero attacks fired — vacuous run slipped through", s)
		}
		switch res.Verdict {
		case VerdictDetected:
			if res.Detection != want.detector {
				t.Errorf("%s: detector %q, want %q (err: %v)", s, res.Detection, want.detector, res.Err)
			}
			if res.Err == nil {
				t.Errorf("%s: detected but no detection error recorded", s)
			}
			if res.DetectLatency < 0 {
				t.Errorf("%s: detected but latency unmeasured", s)
			}
		case VerdictDefended:
			if res.Err != nil {
				t.Errorf("%s: defended but carries an error: %v", s, res.Err)
			}
		}
	}
	t.Logf("\n%s", Scoreboard(results).String())
}

// TestAttackReplayDeterminism: a run is a pure function of its Program —
// same (seed, strategy, ops) replays to a byte-identical transcript and an
// identical verdict line.
func TestAttackReplayDeterminism(t *testing.T) {
	for _, s := range adversary.Strategies() {
		p := DefaultProgram(s, 0x5eed)
		a, err := RunAttack(p)
		if err != nil {
			t.Fatalf("%s run 1: %v", s, err)
		}
		b, err := RunAttack(p)
		if err != nil {
			t.Fatalf("%s run 2: %v", s, err)
		}
		if a.Transcript != b.Transcript {
			t.Errorf("%s: transcripts diverge across replays:\n--- run 1\n%s--- run 2\n%s",
				s, a.Transcript, b.Transcript)
		}
		if a.Verdict != b.Verdict || a.Detection != b.Detection ||
			a.DetectLatency != b.DetectLatency || a.Attacks != b.Attacks {
			t.Errorf("%s: verdict line diverges: (%s %q %d %d) vs (%s %q %d %d)",
				s, a.Verdict, a.Detection, a.DetectLatency, a.Attacks,
				b.Verdict, b.Detection, b.DetectLatency, b.Attacks)
		}
	}
}

func TestRunAttackRejectsUnknownStrategy(t *testing.T) {
	if _, err := RunAttack(adversary.Program{Seed: 1, Strategy: "bogus", Ops: 1}); err == nil {
		t.Fatalf("unknown strategy ran")
	}
}

// TestStaleBlobReplayTwoEnclavesRace drives two enclaves through the full
// blob-replay attack concurrently — two goroutines sharing one machine, one
// driver, and one attack engine. Under -race this shakes the locking on the
// capture hoard, the blob-version ledger, and the ECall core pool; the
// functional assertion is per-enclave: the stale blob is rejected (never
// served) and the current data is recoverable afterwards.
func TestStaleBlobReplayTwoEnclavesRace(t *testing.T) {
	r, err := NewRig(SmallMachine())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adversary.New(adversary.Program{
		Seed: 0x2ace, Strategy: adversary.StratBlobReplay, Ops: 2,
	}, r.M.Rec)
	if err != nil {
		t.Fatal(err)
	}
	r.M.SetHostile(eng)

	victims := make([]*kvVictim, 2)
	for i, base := range []isa.VAddr{0x1000_0000, 0x2000_0000} {
		kv, err := buildKV(r, fmt.Sprintf("victim-%d", i), base)
		if err != nil {
			t.Fatal(err)
		}
		victims[i] = kv
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, kv := range victims {
		wg.Add(1)
		go func(i int, kv *kvVictim) {
			defer wg.Done()
			errs[i] = replayAttackRound(r, kv, byte(0x10*(i+1)))
		}(i, kv)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("enclave %d: %v", i, err)
		}
	}
	if eng.Fired() == 0 {
		t.Fatalf("attack never fired — vacuous run")
	}
	if ev := r.K.Driver.DetectionEvidence(); ev == nil || !errors.Is(ev, sgx.ErrBlobReplay) {
		t.Errorf("no blob-replay evidence recorded, got %v", ev)
	}
}

// replayAttackRound runs one enclave through evict → honest reload → mutate
// → evict → stale-replay reload, asserting detect-or-defend at each step.
func replayAttackRound(r *Rig, kv *kvVictim, tag byte) error {
	v1, v2 := kvPayload(tag), kvPayload(tag+1)
	if _, err := kv.encl.ECall("put", v1); err != nil {
		return fmt.Errorf("put v1: %w", err)
	}
	evict := func() error { return r.K.Driver.EvictPage(r.Host.Proc, kv.encl.SECS(), kv.vpage()) }
	if err := evict(); err != nil {
		return fmt.Errorf("evict v1: %w", err)
	}
	got, err := kv.encl.ECall("get", nil)
	if err != nil || !bytes.Equal(got, v1) {
		return fmt.Errorf("honest reload: got %x err %v", got, err)
	}
	if _, err := kv.encl.ECall("put", v2); err != nil {
		return fmt.Errorf("put v2: %w", err)
	}
	if err := evict(); err != nil {
		return fmt.Errorf("evict v2: %w", err)
	}
	stale, err := kv.encl.ECall("get", nil)
	if err == nil {
		// The engine's shared budget may already be spent by the sibling
		// goroutine; an honest reload must then return current data.
		if !bytes.Equal(stale, v2) {
			return fmt.Errorf("reload returned stale or wrong data: %x", stale)
		}
		return nil
	}
	if !errors.Is(err, sgx.ErrBlobReplay) && r.K.Driver.DetectionEvidence() == nil {
		return fmt.Errorf("reload failed without detection evidence: %w", err)
	}
	// Each failed retry burns at least one unit of the shared attack budget
	// (the driver re-stashes the genuine blob on every rejected substitute),
	// so within Ops+1 honest retries the reload must come back clean.
	for attempt := 0; ; attempt++ {
		got, err = kv.encl.ECall("get", nil)
		if err == nil {
			break
		}
		if attempt >= 3 {
			return fmt.Errorf("recovery after detection: %w", err)
		}
	}
	if !bytes.Equal(got, v2) {
		return fmt.Errorf("recovery returned wrong data: %x", got)
	}
	return nil
}
