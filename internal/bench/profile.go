package bench

import (
	"fmt"
	"strings"

	"nestedenclave/internal/sdk"
	"nestedenclave/internal/trace"
)

// This file is the profiling workload behind `nesclave profile` and the
// repro harness's "sqlservice" experiment: the nested SQL service of §VI-B
// driven by a fixed, deterministic query stream with span tracing enabled.
// Unlike the Table VI throughput runs, the client enclave stages every
// query through its trusted heap, so each call exercises the full memory
// path — TLB refills after the transition flushes, page walks, LLC/MEE
// traffic — and the resulting call tree carries walk spans worth gating on.

// ProfileConfig tunes a profiling run. The zero value is ready.
type ProfileConfig struct {
	// Queries is the number of deterministic YCSB-like queries (0 → 200).
	Queries int
}

// profileLogCap sizes the profiling run's event log and span ring. It must
// hold every span of the run for the call tree to be complete (3,000 queries
// make 12,164 spans); ProfileSQLService fails loudly when spans were evicted.
const profileLogCap = 1 << 15

// ProfileResult is one profiling run's output.
type ProfileResult struct {
	Queries int
	// Cycles is the rig's total simulated cycles.
	Cycles int64
	// Spans are the completed spans in completion order.
	Spans []trace.Span
	// Tree is the name-aggregated call tree over Spans; trace.WriteFolded
	// exports it as folded stacks.
	Tree *trace.SpanNode
	// Hists are the flat PR-1 latency histograms, keyed by op name.
	Hists map[string]trace.HistSnapshot
	// Counters are the flat event counters, keyed by event name.
	Counters map[string]int64
}

// profileQueries builds the deterministic workload: a usertable setup plus a
// fixed read/update/insert mix. No RNG anywhere — run N is identical to run
// N+1, which is what makes the committed perf baseline tight.
func profileQueries(n int) (setup, queries []string) {
	const records = 40
	setup = append(setup, "CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 TEXT)")
	for i := 0; i < records; i++ {
		setup = append(setup, fmt.Sprintf("INSERT INTO usertable VALUES (%d, 'init-%04d')", i, i))
	}
	for i := 0; i < n; i++ {
		key := (i * 7) % records
		switch i % 4 {
		case 0, 1: // 50% reads
			queries = append(queries, fmt.Sprintf("SELECT field0 FROM usertable WHERE ycsb_key = %d", key))
		case 2: // 25% updates
			queries = append(queries, fmt.Sprintf("UPDATE usertable SET field0 = 'upd-%04d' WHERE ycsb_key = %d", i, key))
		default: // 25% inserts
			queries = append(queries, fmt.Sprintf("INSERT INTO usertable VALUES (%d, 'new-%04d')", records+i, i))
		}
	}
	return setup, queries
}

// stage round-trips b through the enclave's trusted heap via the
// hardware-validated access path, forcing the TLB refills and page walks the
// transition flushes make inevitable. It fills a buffer of at least minLen
// bytes with b repeated, reads len(b) bytes back, and frees the buffer after
// a successful read.
func stage(env *sdk.Env, b []byte, minLen int) ([]byte, error) {
	if len(b) == 0 {
		return b, nil
	}
	fill := make([]byte, max(len(b), minLen))
	for i := range fill {
		fill[i] = b[i%len(b)]
	}
	buf, err := env.Malloc(len(fill))
	if err != nil {
		return nil, err
	}
	if err := env.Write(buf, fill); err != nil {
		return nil, err
	}
	out, err := env.Read(buf, len(b))
	if err != nil {
		return nil, err
	}
	if err := env.Free(buf); err != nil {
		return nil, err
	}
	return out, nil
}

// ProfileSQLService runs the profiling workload and returns the spans, their
// call tree, the histograms, and the flat counters.
func ProfileSQLService(cfg ProfileConfig) (*ProfileResult, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 200
	}
	r, err := NewRig(SmallMachine())
	if err != nil {
		return nil, err
	}
	rec := r.M.Rec
	rec.EnableObservation(profileLogCap)

	s, err := BuildSQLService(r, true, true)
	if err != nil {
		return nil, err
	}
	setup, queries := profileQueries(cfg.Queries)
	for _, q := range setup {
		if _, err := s.Query(q); err != nil {
			return nil, fmt.Errorf("profile setup: %w", err)
		}
	}
	for _, q := range queries {
		if _, err := s.Query(q); err != nil {
			return nil, fmt.Errorf("profile query: %w", err)
		}
	}

	res := &ProfileResult{
		Queries:  cfg.Queries,
		Cycles:   rec.Cycles(),
		Spans:    rec.Spans(),
		Hists:    rec.HistSnapshots(),
		Counters: rec.Snapshot(),
	}
	res.Tree = trace.AggregateSpans(res.Spans)
	// The call tree is only complete when the span ring held every span.
	if n := len(res.Spans); n >= profileLogCap {
		return nil, fmt.Errorf("profile: span ring wrapped (%d spans at capacity %d); profile fewer queries", n, profileLogCap)
	}
	return res, nil
}

// RenderTree formats the call tree with per-node counts, inclusive and self
// cycles, and the inclusive share of total root cycles.
func (p *ProfileResult) RenderTree() string {
	var total int64
	for _, c := range p.Tree.Children {
		total += c.Cycles
	}
	var b strings.Builder
	fmt.Fprintf(&b, "call tree (%d spans, %d queries, %d total root cycles):\n",
		len(p.Spans), p.Queries, total)
	fmt.Fprintf(&b, "  %-42s %10s %14s %14s %7s\n", "span", "count", "cycles", "self", "%root")
	p.Tree.Walk(func(path []string, n *trace.SpanNode) {
		name := strings.Repeat("  ", len(path)-1) + n.Name
		share := 0.0
		if total > 0 {
			share = 100 * float64(n.Cycles) / float64(total)
		}
		fmt.Fprintf(&b, "  %-42s %10d %14d %14d %6.1f%%\n", name, n.Count, n.Cycles, n.Self, share)
	})
	return b.String()
}
