package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smoke sizes a run to a few hundred requests.
func smoke(traced bool) opts {
	return opts{setups: 1, warmup: 20, simOps: 200, seconds: 0.2, traced: traced}
}

// spansPerRequest is how many spans of each kind one request opens; access
// spans are counted over their three classes together.
var spansPerRequest = map[string]map[string]int64{
	"sql-ycsb":     sqlSpans,
	"sql-ycsb-2c":  sqlSpans,
	"outer-stream": {"client.request": 1, "sdk.ecall": 2, "access": 128},
	"epc-thrash":   {"client.request": 1, "sdk.ecall": 1, "access": 16},
}

var sqlSpans = map[string]int64{
	"client.request": 1, "sdk.ecall": 1, "sdk.n_ocall": 1, "sdk.heap": 4, "access": 4,
	"sqldb.parse": 2, "crypto.gcm": 1, "sqldb.exec": 1, "app.lock_wait": 1,
}

func mustRun(t *testing.T, w *workload, traced bool) *measurement {
	t.Helper()
	m, err := run(w, 7, smoke(traced))
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 {
		t.Fatalf("%d of %d requests failed", m.failed, m.attempted)
	}
	return m
}

// TestWorkloads runs every workload untraced and traced on one seed: no
// request may fail, the simulated metrics must repeat exactly (tracing is
// host-side only), and the traced run must open the expected spans, whose
// self times add up to the request time.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a, m := mustRun(t, w, false), mustRun(t, w, true)
			if a.simCycles != m.simCycles || a.simP99 != m.simP99 || a.simCounters != m.simCounters {
				t.Errorf("simulated metrics differ between two runs of one seed: cycles %d/%d, p99 %d/%d",
					a.simCycles, m.simCycles, a.simP99, m.simP99)
			}
			for name, h := range a.simHist {
				if m.simHist[name] != h {
					t.Errorf("histogram %s differs between two runs of one seed: %+v vs %+v", name, h, m.simHist[name])
				}
			}

			if m.tracedOps == 0 {
				t.Fatal("traced run traced no request")
			}
			got := map[string]int64{}
			var selfSum int64
			for k, a := range m.layers {
				name := kindNames[k]
				if kind(k) == kTLBHit || kind(k) == kWalk || kind(k) == kReload {
					name = "access"
				}
				got[name] += a.Count
				selfSum += a.SelfNs
			}
			for name, per := range spansPerRequest[w.name] {
				if got[name] != per*m.tracedOps {
					t.Errorf("%s spans: %d, want %d per request × %d requests", name, got[name], per, m.tracedOps)
				}
			}
			if req := m.layers[kRequest].InclNs; selfSum != req {
				t.Errorf("layer self times add up to %d ns, requests took %d ns", selfSum, req)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the names and units a run prints in
// step with the metric lists in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []*workload
	for _, w := range workloads {
		if !w.diagnostic {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if i < len(gated) && gated[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, gated[i].name)
		}
	}
	m := &measurement{simOps: 1}
	for _, c := range []struct {
		list    string
		spec    []struct{ Name, Unit string }
		emitted []metricVal
	}{{"end_to_end", spec.EndToEnd, m.endToEnd()}, {"per_layer", spec.PerLayer, m.perLayer()}} {
		if len(c.spec) != len(c.emitted) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run prints %d", c.list, len(c.spec), len(c.emitted))
			continue
		}
		for i, s := range c.spec {
			if e := c.emitted[i]; s.Name != e.name || s.Unit != e.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), a run prints %s (%s)", c.list, i, s.Name, s.Unit, e.name, e.unit)
			}
		}
	}
}
