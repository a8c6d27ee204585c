package bench

import (
	"strings"
	"testing"
)

// gateSnapshot builds a representative experiment snapshot for gate tests.
func gateSnapshot() *ExperimentSnapshot {
	return &ExperimentSnapshot{
		Name:   "synthetic",
		Cycles: 9_000_000,
		WallMS: 12.5, // never gated
		Counters: map[string]int64{
			"page_walk": 682,
			"tlb_miss":  682,
			"ewb":       12,
			"eld":       12,
			"llc_hit":   1700, // not a gated counter
		},
		Histograms: map[string]HistogramJSON{
			"ecall":   {Count: 341, SumCyc: 8_929_914, MeanCyc: 26187.43},
			"n_ocall": {Count: 341, SumCyc: 4_095_557, MeanCyc: 12010.43},
		},
	}
}

// clone deep-copies the snapshot so tests can doctor one side.
func (s *ExperimentSnapshot) clone() *ExperimentSnapshot {
	c := *s
	c.Counters = map[string]int64{}
	for k, v := range s.Counters {
		c.Counters[k] = v
	}
	c.Histograms = map[string]HistogramJSON{}
	for k, v := range s.Histograms {
		c.Histograms[k] = v
	}
	return &c
}

// TestGateSelfComparison: a snapshot gated against itself passes with every
// ratio exactly 1 — the committed-baseline workflow's steady state.
func TestGateSelfComparison(t *testing.T) {
	base := gateSnapshot()
	results := CompareGate(base, base.clone())
	if GateFailed(results) {
		t.Fatalf("self-comparison failed:\n%s", RenderGate("self", results, true))
	}
	for _, r := range results {
		if r.Ratio != 1 {
			t.Errorf("%s: self ratio = %v, want exactly 1", r.Metric, r.Ratio)
		}
	}
	// Exactly the gated metric set: cycles, 2×(mean+count), 4 gated counters
	// present in the snapshot; llc_hit and wall_ms are not gated.
	if len(results) != 9 {
		t.Errorf("gated %d metrics, want 9:\n%s", len(results), RenderGate("self", results, false))
	}
	for _, r := range results {
		if r.Metric == "counter.llc_hit" || strings.Contains(r.Metric, "wall") {
			t.Errorf("ungated metric %s leaked into the gate", r.Metric)
		}
	}
}

// TestGateCatchesWalkSlowdown plants the acceptance criterion's deliberate
// 2× page-walk slowdown and demands the gate fail on exactly the walk-path
// metrics.
func TestGateCatchesWalkSlowdown(t *testing.T) {
	base := gateSnapshot()
	cur := base.clone()
	cur.Counters["page_walk"] *= 2
	cur.Counters["tlb_miss"] *= 2
	h := cur.Histograms["ecall"]
	h.MeanCyc *= 2 // the walk cost surfaces in the call latency
	cur.Histograms["ecall"] = h
	cur.Cycles = int64(float64(cur.Cycles) * 1.8)

	results := CompareGate(base, cur)
	if !GateFailed(results) {
		t.Fatal("gate passed a 2× walk-path slowdown")
	}
	failed := map[string]bool{}
	for _, r := range results {
		if r.Failed {
			failed[r.Metric] = true
		}
	}
	for _, want := range []string{"counter.page_walk", "counter.tlb_miss", "hist.ecall.mean_cycles", "cycles"} {
		if !failed[want] {
			t.Errorf("metric %s did not fail:\n%s", want, RenderGate("walk2x", results, false))
		}
	}
	for _, clean := range []string{"hist.n_ocall.mean_cycles", "hist.ecall.count", "counter.ewb"} {
		if failed[clean] {
			t.Errorf("unchanged metric %s wrongly failed", clean)
		}
	}
}

// TestGateTolerance pins the exact, two-sided rule: there is no tolerance,
// so a drift of 0.1% in either direction fails and names the metric, and
// only an identical snapshot passes.
func TestGateTolerance(t *testing.T) {
	base := gateSnapshot()

	if results := CompareGate(base, base.clone()); GateFailed(results) {
		t.Errorf("identical snapshot failed the gate:\n%s", RenderGate("same", results, true))
	}
	for _, drift := range []float64{1.001, 0.999} {
		cur := base.clone()
		cur.Cycles = int64(float64(base.Cycles) * drift)
		results := CompareGate(base, cur)
		var failed []string
		for _, r := range results {
			if r.Failed {
				failed = append(failed, r.Metric)
			}
		}
		if len(failed) != 1 || failed[0] != "cycles" {
			t.Errorf("%+.1f%% cycles drift failed %v, want exactly [cycles]:\n%s",
				100*(drift-1), failed, RenderGate("drift", results, false))
		}
	}
}

// TestGateVanishedMetric: a gated path that silently stops being exercised
// is a failure, not a 100% improvement.
func TestGateVanishedMetric(t *testing.T) {
	base := gateSnapshot()
	cur := base.clone()
	cur.Counters["page_walk"] = 0

	results := CompareGate(base, cur)
	var vanished bool
	for _, r := range results {
		if r.Metric == "counter.page_walk" && r.Failed && strings.Contains(r.Reason, "vanished") {
			vanished = true
		}
	}
	if !vanished {
		t.Errorf("zeroed gated counter not flagged:\n%s", RenderGate("vanish", results, false))
	}

	// A metric new in the current run (absent from baseline) is not gated.
	grown := base.clone()
	grown.Counters["ipi"] = 40
	if results := CompareGate(base, grown); GateFailed(results) {
		t.Errorf("new metric failed the gate:\n%s", RenderGate("new", results, true))
	}
}

// TestGateAgainstLiveRun gates a real (tiny) profiling run against its own
// snapshot loaded through the experiment machinery, proving the repro -gate
// flow end to end inside the test suite.
func TestGateAgainstLiveRun(t *testing.T) {
	run := func() *ExperimentSnapshot {
		BeginExperiment("gate-live")
		if _, err := ProfileSQLService(ProfileConfig{Queries: 40}); err != nil {
			t.Fatal(err)
		}
		return EndExperiment()
	}
	base, cur := run(), run()
	results := CompareGate(base, cur)
	if GateFailed(results) {
		t.Fatalf("two identical runs failed the gate:\n%s", RenderGate("live", results, true))
	}
	for _, r := range results {
		if r.Ratio != 1 {
			t.Errorf("%s: live ratio = %v, want exactly 1 (deterministic workload)", r.Metric, r.Ratio)
		}
	}
}
