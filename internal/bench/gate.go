package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// This file is the perf-trajectory regression gate: `repro -gate <dir>`
// re-runs the headline experiments and compares their cycle-derived metrics
// against the committed BENCH_<name>.json baselines. Everything gated is a
// function of the simulated clock and the deterministic workloads, so the
// gate is exact; wall-clock fields (wall_ms, QPS columns) are never gated.

// GateResult is one gated metric's comparison.
type GateResult struct {
	Metric string
	Base   float64
	Cur    float64
	// Ratio is Cur/Base (1 = unchanged; +Inf when only Base is 0).
	Ratio  float64
	Failed bool
	Reason string
}

// gatedCounters are the event counters whose *increase* is a regression:
// translation work and paging traffic.
var gatedCounters = []string{"page_walk", "tlb_miss", "ewb", "eld", "ipi"}

// GateMetrics extracts the gated metric set from a snapshot: total simulated
// cycles, per-op latency histogram means and counts, and the gated counters.
func GateMetrics(s *ExperimentSnapshot) map[string]float64 {
	m := map[string]float64{"cycles": float64(s.Cycles)}
	for name, h := range s.Histograms {
		m["hist."+name+".mean_cycles"] = h.MeanCyc
		m["hist."+name+".count"] = float64(h.Count)
	}
	for _, c := range gatedCounters {
		if v, ok := s.Counters[c]; ok {
			m["counter."+c] = float64(v)
		}
	}
	for k, v := range s.Extra {
		m["extra."+k] = v
	}
	return m
}

// CompareGate gates cur against base exactly: a gated metric that differs
// from its baseline in either direction fails, until the baselines are
// regenerated on purpose (`make baselines`). A metric present in the
// baseline and absent (or zero) in the current run fails as vanished: the
// gated path silently stopped being exercised, which would otherwise let a
// regression hide behind a workload change. Metrics absent from the
// baseline are not gated.
func CompareGate(base, cur *ExperimentSnapshot) []GateResult {
	bm, cm := GateMetrics(base), GateMetrics(cur)
	names := make([]string, 0, len(bm))
	for n := range bm {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []GateResult
	for _, n := range names {
		b, c := bm[n], cm[n]
		r := GateResult{Metric: n, Base: b, Cur: c, Ratio: 1}
		if b != 0 {
			r.Ratio = c / b
		} else if c != 0 {
			r.Ratio = math.Inf(1)
		}
		switch {
		case c == b:
		case c == 0:
			r.Failed = true
			r.Reason = "metric vanished (gated path no longer exercised)"
		default:
			r.Failed = true
			r.Reason = fmt.Sprintf("changed by %+g from the baseline", c-b)
		}
		out = append(out, r)
	}
	return out
}

// GateFailed reports whether any result failed.
func GateFailed(results []GateResult) bool {
	for _, r := range results {
		if r.Failed {
			return true
		}
	}
	return false
}

// RenderGate formats gate results; pass failedOnly to elide clean metrics.
func RenderGate(name string, results []GateResult, failedOnly bool) string {
	var b strings.Builder
	nFail := 0
	for _, r := range results {
		if r.Failed {
			nFail++
		}
	}
	fmt.Fprintf(&b, "gate %s: %d metrics, %d failed\n", name, len(results), nFail)
	fmt.Fprintf(&b, "  %-34s %16s %16s %8s  %s\n", "metric", "baseline", "current", "ratio", "verdict")
	for _, r := range results {
		if failedOnly && !r.Failed {
			continue
		}
		verdict := "ok"
		if r.Failed {
			verdict = "FAIL: " + r.Reason
		}
		fmt.Fprintf(&b, "  %-34s %16.2f %16.2f %8.3f  %s\n", r.Metric, r.Base, r.Cur, r.Ratio, verdict)
	}
	return b.String()
}

// LoadSnapshot reads a BENCH_<name>.json baseline.
func LoadSnapshot(path string) (*ExperimentSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s ExperimentSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
