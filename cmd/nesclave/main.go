// Command nesclave is the simulator's utility CLI:
//
//	nesclave info              # print the machine model and cost model
//	nesclave demo              # run a minimal nested-enclave round trip
//	nesclave selftest          # execute the Table VII attacks and report outcomes
//	nesclave stats             # run the demo workload, print per-enclave counters
//	nesclave trace [-o f.json] # run the demo workload, emit Chrome trace JSON
//	nesclave profile           # profile the nested SQL service: call tree
//	                           # with self cycles, folded stacks, flame JSON
//
// The trace output loads directly in chrome://tracing or
// https://ui.perfetto.dev: each enclave appears as a process lane (pid = EID)
// with EENTER/EEXIT/NEENTER/NEEXIT spans per core.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"

	ne "nestedenclave"
	"nestedenclave/internal/bench"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nesclave <info|demo|selftest|stats|trace|profile> [args]")
	fmt.Fprintln(os.Stderr, "  stats flags:   -n ITERS, -prom (Prometheus text exposition)")
	fmt.Fprintln(os.Stderr, "  trace flags:   -o FILE (default stdout), -n ITERS, -log N (ring capacity)")
	fmt.Fprintln(os.Stderr, "  profile flags: -queries N, -folded FILE, -o FILE (flame JSON)")
	os.Exit(2)
}

func info() {
	cfg := sgx.DefaultConfig()
	fmt.Println("machine model (defaults):")
	fmt.Printf("  cores:          %d\n", cfg.Cores)
	fmt.Printf("  DRAM:           %d MiB\n", cfg.Phys.DRAMSize>>20)
	fmt.Printf("  PRM (EPC):      %d MiB at %#x\n", cfg.Phys.PRMSize>>20, uint64(cfg.Phys.PRMBase))
	fmt.Printf("  LLC:            %d MiB, %d-way\n", cfg.LLC.SizeBytes>>20, cfg.LLC.Ways)
	fmt.Println("cost model (cycles, 4 GHz reference):")
	rows := []struct {
		name string
		c    int64
	}{
		{"EENTER", trace.CostEENTER}, {"EENTER (resume)", trace.CostEENTERResume},
		{"EEXIT", trace.CostEEXIT}, {"NEENTER", trace.CostNEENTER},
		{"NEEXIT", trace.CostNEEXIT}, {"AEX", trace.CostAEX},
		{"TLB flush", trace.CostTLBFlush}, {"page walk", trace.CostPageWalk},
		{"validation step", trace.CostValidateStep}, {"MEE line (64 B)", trace.CostMEELine},
		{"LLC hit", trace.CostLLCHit}, {"DRAM access", trace.CostDRAMAccess},
		{"IPI", trace.CostIPI}, {"AES-GCM fixed", trace.CostGCMFixed},
		{"AES-GCM per 16 B", trace.CostGCMPerBlock},
	}
	for _, r := range rows {
		fmt.Printf("  %-17s %6d (%.2f us)\n", r.name, r.c, float64(r.c)/trace.CyclesPerUS)
	}
}

// demoWorkload boots the two-enclave demo (outer "lib", inner "app") and runs
// iters round trips of untrusted -> outer ecall -> inner n_ecall -> n_ocall
// back into the outer library, exercising every transition flavour. It
// returns the system for inspection and the last response.
func demoWorkload(sys *ne.System, iters int) ([]byte, error) {
	author := ne.NewAuthor()
	outerImg := ne.NewImage("lib", 0x2000_0000, ne.DefaultLayout())
	innerImg := ne.NewImage("app", 0x1000_0000, ne.DefaultLayout())
	outerImg.RegisterECall("run", func(env *ne.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "work", args)
	})
	outerImg.RegisterNOCall("transform", func(env *ne.Env, args []byte) ([]byte, error) {
		out := append([]byte(nil), args...)
		for i := range out {
			out[i] ^= 0x20
		}
		return out, nil
	})
	innerImg.RegisterECall("work", func(env *ne.Env, args []byte) ([]byte, error) {
		// Stage the request on the trusted heap so the round trip exercises
		// the hardware-validated access path (TLB, page walks, LLC, MEE).
		buf, err := env.Malloc(len(args))
		if err != nil {
			return nil, err
		}
		// Free on unwind; a failed free of a trusted-heap scratch buffer is
		// not actionable mid-ecall, so discard explicitly (errcheck-lite
		// flags silent `defer env.Free(buf)` discards).
		defer func() { _ = env.Free(buf) }()
		if err := env.Write(buf, args); err != nil {
			return nil, err
		}
		staged, err := env.Read(buf, len(args))
		if err != nil {
			return nil, err
		}
		// Call back into the outer library (n_ocall) before answering.
		tr, err := env.NOCall("transform", staged)
		if err != nil {
			return nil, err
		}
		return append([]byte("processed in the inner enclave: "), tr...), nil
	})
	outer, err := sys.Load(outerImg.Sign(author, nil, []ne.Digest{innerImg.Measure()}))
	if err != nil {
		return nil, err
	}
	inner, err := sys.Load(innerImg.Sign(author, []ne.Digest{outerImg.Measure()}, nil))
	if err != nil {
		return nil, err
	}
	if err := sys.Associate(inner, outer); err != nil {
		return nil, err
	}
	var out []byte
	for i := 0; i < iters; i++ {
		if out, err = outer.ECall("run", []byte("HELLO")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func demo() error {
	sys := ne.NewSystem()
	out, err := demoWorkload(sys, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	fmt.Println("machine events:", sys.Recorder().Counters.String())
	return nil
}

// stats runs the demo workload with observation enabled and prints the
// per-enclave counter attribution and latency histograms.
func stats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	iters := fs.Int("n", 100, "demo round trips to run")
	prom := fs.Bool("prom", false, "emit Prometheus text exposition instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys := ne.NewSystem()
	rec := sys.Recorder()
	rec.EnableObservation(0) // attribution only; no event log needed
	if _, err := demoWorkload(sys, *iters); err != nil {
		return err
	}
	if *prom {
		return trace.WritePrometheus(os.Stdout, rec)
	}

	per := rec.PerEnclave()
	eids := make([]uint64, 0, len(per))
	for eid := range per {
		eids = append(eids, eid)
	}
	sort.Slice(eids, func(i, j int) bool { return eids[i] < eids[j] })

	t := &bench.Table{
		Title:   fmt.Sprintf("per-enclave event counters (%d demo round trips)", *iters),
		Headers: []string{"event"},
		Notes: []string{
			"EID 0 is untrusted execution; attribution follows the billed protection context",
		},
	}
	for _, eid := range eids {
		if eid == trace.NoEID {
			t.Headers = append(t.Headers, "untrusted")
		} else {
			t.Headers = append(t.Headers, fmt.Sprintf("enclave %d", eid))
		}
	}
	for i := 0; i < trace.NumEvents; i++ {
		e := trace.Event(i)
		row := []string{e.String()}
		nonzero := false
		for _, eid := range eids {
			set := per[eid]
			v := set.Get(e)
			if v != 0 {
				nonzero = true
			}
			row = append(row, fmt.Sprintf("%d", v))
		}
		if nonzero {
			t.AddRow(row...)
		}
	}
	fmt.Println(t.String())

	h := &bench.Table{
		Title:   "composite operation latencies (simulated cycles)",
		Headers: []string{"op", "count", "mean", "p50", "p90", "p99"},
		Notes:   []string{"log2 buckets: quantiles are bucket upper bounds (at most 2x over)"},
	}
	for op := 0; op < trace.NumOps; op++ {
		s := rec.Hist(trace.Op(op)).Snapshot()
		if s.Count == 0 {
			continue
		}
		h.AddRow(trace.Op(op).String(),
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.0f", s.Mean()),
			fmt.Sprintf("%d", s.Quantile(0.50)),
			fmt.Sprintf("%d", s.Quantile(0.90)),
			fmt.Sprintf("%d", s.Quantile(0.99)))
	}
	fmt.Println(h.String())

	fmt.Printf("total simulated cycles: %d (%.2f us at 4 GHz)\n",
		rec.Cycles(), float64(rec.Cycles())/trace.CyclesPerUS)
	return nil
}

// traceCmd runs the demo workload with the event log enabled and writes the
// Chrome trace_event JSON timeline.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	iters := fs.Int("n", 3, "demo round trips to run")
	logCap := fs.Int("log", 1<<16, "event log capacity (records retained)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys := ne.NewSystem()
	rec := sys.Recorder()
	rec.EnableObservation(*logCap)
	if _, err := demoWorkload(sys, *iters); err != nil {
		return err
	}
	log := rec.Log()
	if log == nil {
		return fmt.Errorf("event log not enabled")
	}
	recs := log.Snapshot()
	b, err := trace.ChromeTrace(recs, trace.CyclesPerUS)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Printf("%s\n", b)
		return nil
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d events (%d bytes) to %s — load in chrome://tracing or ui.perfetto.dev\n",
		len(recs), len(b), *out)
	return nil
}

// profileCmd runs the nested SQL service under span tracing and prints the
// causal call tree with inclusive and self cycles. The tree's self cycles as
// folded stacks (flamegraph.pl input) and a Chrome trace_event flame view of
// the spans are written on request.
func profileCmd(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	queries := fs.Int("queries", 300, "deterministic YCSB-like queries to run")
	folded := fs.String("folded", "", "write folded stacks of self cycles to FILE (flamegraph.pl input)")
	out := fs.String("o", "", "write Chrome trace_event flame JSON to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := bench.ProfileSQLService(bench.ProfileConfig{Queries: *queries})
	if err != nil {
		return err
	}
	fmt.Print(p.RenderTree())
	if *folded != "" {
		var b bytes.Buffer
		if err := trace.WriteFolded(&b, p.Tree); err != nil {
			return err
		}
		if err := os.WriteFile(*folded, b.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d folded stacks to %s\n", bytes.Count(b.Bytes(), []byte("\n")), *folded)
	}
	if *out != "" {
		b, err := trace.SpansToChrome(p.Spans, trace.CyclesPerUS)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans (%d bytes) to %s — load in chrome://tracing or ui.perfetto.dev\n",
			len(p.Spans), len(b), *out)
	}
	return nil
}

func selftest() error {
	rows, err := bench.TableVII()
	if err != nil {
		return err
	}
	fmt.Println(bench.RenderTableVII(rows))
	for _, r := range rows {
		if !r.Reproduced {
			return fmt.Errorf("attack %q not reproduced", r.Attack)
		}
	}
	fmt.Println("all attacks reproduced: baseline vulnerable, nested enclave protected")
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "info":
		info()
	case "demo":
		err = demo()
	case "selftest":
		err = selftest()
	case "stats":
		err = stats(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "profile":
		err = profileCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nesclave:", err)
		os.Exit(1)
	}
}
