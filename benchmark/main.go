// Command benchmark measures the nested-enclave simulator end to end on three
// gated workloads and one diagnostic one and, in a traced run, layer by layer. See README.md for the
// workloads, the metrics and their bounds.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload sql-ycsb --seed 1 --seconds 10 --trace 0
//
// or, inside benchmark/, go run . -seed 1 (all workloads). The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics (-trace 0) or the per-layer ones
// (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sql-ycsb, outer-stream, epc-thrash or the diagnostic sql-ycsb-2c (default: all, in that order)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory a traced run writes trace_<workload>.json and layers_<workload>.json to")
	jsonOut := flag.String("json", "", "also write every result to this file")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive")
		os.Exit(2)
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []*workload{w}
	}
	var all []map[string]any
	for _, w := range todo {
		o := opts{setups: w.setups, warmup: w.warmup, simOps: w.simOps, seconds: *seconds, traced: *traced == 1}
		m, err := run(w, *seed, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		metrics := m.endToEnd()
		if o.traced {
			metrics = m.perLayer()
			if err := writeTrace(*traceDir, m.traceReport(), m.tracers); err != nil {
				fmt.Fprintln(os.Stderr, "writing trace:", err)
				os.Exit(1)
			}
		}
		res := newResult(m, metrics)
		printReport(os.Stdout, m, metrics)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		all = append(all, map[string]any{"workload": w.name, "seed": *seed, "trace": *traced, "result": res})
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func newResult(m *measurement, metrics []metricVal) result {
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]jsonMetric, len(metrics)),
	}
	for _, mv := range metrics {
		res.Metrics[mv.name] = jsonMetric{Value: mv.value, Unit: mv.unit}
	}
	return res
}

func printReport(w io.Writer, m *measurement, metrics []metricVal) {
	mode := "untraced"
	if m.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (seed %d, %s): %d requests attempted, %d failed, error_rate %g\n",
		m.workload, m.seed, mode, m.attempted, m.failed, float64(m.failed)/float64(max(m.attempted, 1)))
	fmt.Fprintf(w, "  timed phase: %d requests in %.3f s; %d latency samples; simulated-cost window: %d requests\n",
		m.timedOps, float64(m.timedNs)/1e9, m.samples, m.simOps)
	for _, mv := range metrics {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", mv.name, mv.value, mv.unit)
	}
}

func (m *measurement) traceReport() traceReport {
	rep := traceReport{Workload: m.workload, Seed: m.seed, TracedRequests: m.tracedOps, OverheadPct: m.overheadPct()}
	traced := float64(max(m.tracedOps, 1))
	for k, a := range m.layers {
		rep.Layers = append(rep.Layers, layerLine{
			Name: kindNames[k], layerAgg: a,
			CountPerReq: float64(a.Count) / traced, SelfNsPerReq: float64(a.SelfNs) / traced,
		})
	}
	return rep
}
