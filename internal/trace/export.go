package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders the observability layer's data for external tools:
//
//   - ChromeTrace turns an event-log snapshot into Chrome trace_event JSON
//     that loads directly in chrome://tracing or https://ui.perfetto.dev.
//     Each enclave becomes a "process" (pid = EID) and each core a "thread",
//     so the timeline shows per-enclave swimlanes of EENTER/EEXIT/NEENTER/
//     NEEXIT spans, TLB work, faults and paging.
//   - WritePrometheus dumps the recorder as Prometheus text exposition:
//     global counters, per-enclave counters, and the latency histograms in
//     the standard _bucket/_sum/_count form.
//   - SpansToChrome, AggregateSpans and WriteFolded render the completed
//     spans as a flame view, a call tree with self cycles, and folded stacks.

// chromeEvent is one trace_event entry. Field order fixes the JSON layout so
// golden tests stay stable; map args marshal with sorted keys.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders records (as returned by EventLog.Snapshot) as Chrome
// trace_event JSON. cyclesPerUS converts the simulated clock to microseconds;
// pass CyclesPerUS for the default 4 GHz reference. Events with a cycle cost
// become complete ("X") spans; zero-cost markers become instant events.
func ChromeTrace(recs []Record, cyclesPerUS float64) ([]byte, error) {
	if cyclesPerUS <= 0 {
		cyclesPerUS = CyclesPerUS
	}
	eids := make(map[uint64]bool)
	for _, r := range recs {
		eids[r.EID] = true
	}
	events := laneNames(eids)
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Event.String(),
			Pid:  r.EID,
			Tid:  int64(r.Core),
			Args: map[string]any{"seq": r.Seq},
		}
		if r.Detail != 0 {
			ev.Args["detail"] = r.Detail
		}
		if r.Span != 0 {
			ev.Args["span"] = r.Span
		}
		if r.Cost > 0 {
			ev.Ph = "X"
			ev.Ts = float64(r.Cycles-r.Cost) / cyclesPerUS
			dur := float64(r.Cost) / cyclesPerUS
			ev.Dur = &dur
		} else {
			ev.Ph = "i"
			ev.Ts = float64(r.Cycles) / cyclesPerUS
			ev.S = "t"
		}
		events = append(events, ev)
	}
	return json.Marshal(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// laneNames returns one process_name metadata event per EID, in ascending
// EID order, so the viewer shows a readable lane per enclave.
func laneNames(eids map[uint64]bool) []chromeEvent {
	sorted := make([]uint64, 0, len(eids))
	for e := range eids {
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var events []chromeEvent
	for _, e := range sorted {
		name := fmt.Sprintf("enclave %d", e)
		if e == NoEID {
			name = "untrusted"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: e,
			Args: map[string]any{"name": name},
		})
	}
	return events
}

// WritePrometheus dumps the recorder's counters, per-enclave counters, and
// latency histograms in Prometheus text exposition format. Output order is
// deterministic.
func WritePrometheus(w io.Writer, r *Recorder) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP nesclave_cycles_total Simulated cycles accumulated by the cost model.\n")
	p("# TYPE nesclave_cycles_total counter\n")
	p("nesclave_cycles_total %d\n", r.Cycles())

	p("# HELP nesclave_events_total Architectural events by type.\n")
	p("# TYPE nesclave_events_total counter\n")
	var cs CounterSet
	r.SnapshotInto(&cs)
	for e := Event(0); e < numEvents; e++ {
		if v := cs.Get(e); v != 0 {
			p("nesclave_events_total{event=%q} %d\n", e.String(), v)
		}
	}

	per := r.PerEnclave()
	if len(per) > 0 {
		p("# HELP nesclave_enclave_events_total Architectural events billed per enclave.\n")
		p("# TYPE nesclave_enclave_events_total counter\n")
		eids := make([]uint64, 0, len(per))
		for eid := range per {
			eids = append(eids, eid)
		}
		sort.Slice(eids, func(i, j int) bool { return eids[i] < eids[j] })
		for _, eid := range eids {
			set := per[eid]
			for e := Event(0); e < numEvents; e++ {
				if v := set.Get(e); v != 0 {
					p("nesclave_enclave_events_total{eid=\"%d\",event=%q} %d\n", eid, e.String(), v)
				}
			}
		}
	}

	p("# HELP nesclave_op_cycles Latency of composite operations in simulated cycles.\n")
	p("# TYPE nesclave_op_cycles histogram\n")
	for op := Op(0); op < numOps; op++ {
		s := r.Hist(op).Snapshot()
		if s.Count == 0 {
			continue
		}
		var cum int64
		for i, b := range s.Buckets {
			if b == 0 {
				continue
			}
			cum += b
			p("nesclave_op_cycles_bucket{op=%q,le=\"%d\"} %d\n", op.String(), BucketBound(i), cum)
		}
		p("nesclave_op_cycles_bucket{op=%q,le=\"+Inf\"} %d\n", op.String(), s.Count)
		p("nesclave_op_cycles_sum{op=%q} %d\n", op.String(), s.Sum)
		p("nesclave_op_cycles_count{op=%q} %d\n", op.String(), s.Count)
	}

	p("# HELP nesclave_op_cycles_quantile Latency quantiles of composite operations (log2-bucket upper bounds).\n")
	p("# TYPE nesclave_op_cycles_quantile gauge\n")
	for op := Op(0); op < numOps; op++ {
		s := r.Hist(op).Snapshot()
		if s.Count == 0 {
			continue
		}
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}} {
			p("nesclave_op_cycles_quantile{op=%q,q=%q} %d\n", op.String(), q.label, s.Quantile(q.q))
		}
	}
	return err
}

// SpansToChrome renders completed spans (as returned by Recorder.Spans) as
// Chrome trace_event JSON: each span becomes a complete ("X") event carrying
// its span and parent IDs, pid = EID, tid = core — the flame view of the
// call tree. cyclesPerUS as in ChromeTrace.
func SpansToChrome(spans []Span, cyclesPerUS float64) ([]byte, error) {
	if cyclesPerUS <= 0 {
		cyclesPerUS = CyclesPerUS
	}
	eids := make(map[uint64]bool)
	for _, s := range spans {
		eids[s.EID] = true
	}
	events := laneNames(eids)
	for _, s := range spans {
		dur := float64(s.End-s.Start) / cyclesPerUS
		args := map[string]any{"span": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start) / cyclesPerUS,
			Dur:  &dur,
			Pid:  s.EID,
			Tid:  int64(s.Core),
			Args: args,
		})
	}
	return json.Marshal(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// SpanNode is one node of a name-aggregated call tree: all spans sharing the
// same root-to-node name path merge into one node accumulating their count,
// inclusive cycles and self cycles.
type SpanNode struct {
	Name   string
	Count  int64
	Cycles int64 // inclusive: children's cycles are part of the parent's
	// Self is Cycles minus the inclusive cycles of the direct child spans
	// still in the ring: the time spent in this node and none of its
	// children. Self summed over a tree equals the inclusive cycles of its
	// top-level nodes.
	Self     int64
	Children []*SpanNode
}

// child returns (creating if needed) the named child.
func (n *SpanNode) child(name string) *SpanNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &SpanNode{Name: name}
	n.Children = append(n.Children, c)
	return c
}

// Walk visits the tree depth-first. path holds the names from the top level
// down to node, node's own last; the root itself, an empty aggregation node,
// is skipped. Walk reuses path between visits.
func (n *SpanNode) Walk(visit func(path []string, node *SpanNode)) {
	var path []string
	var rec func(node *SpanNode)
	rec = func(node *SpanNode) {
		path = append(path, node.Name)
		visit(path, node)
		for _, c := range node.Children {
			rec(c)
		}
		path = path[:len(path)-1]
	}
	for _, c := range n.Children {
		rec(c)
	}
}

// AggregateSpans folds completed spans into a call tree keyed by name path.
// A span whose parent fell out of the bounded span ring roots its subtree at
// the top level — the tree degrades gracefully under ring eviction rather
// than dropping orphans. Children sort by descending inclusive cycles.
func AggregateSpans(spans []Span) *SpanNode {
	byID := make(map[uint64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// path returns the root-to-span name chain, following Parent links as
	// far as the ring still remembers them.
	var path func(s *Span) []string
	path = func(s *Span) []string {
		if s.Parent != 0 {
			if p, ok := byID[s.Parent]; ok {
				return append(path(p), s.Name)
			}
		}
		return []string{s.Name}
	}
	// childCycles[id] is the inclusive cycles of span id's children in the
	// ring, the part of its own inclusive cycles that is not its self time.
	childCycles := make(map[uint64]int64, len(spans))
	for i := range spans {
		if _, ok := byID[spans[i].Parent]; ok {
			childCycles[spans[i].Parent] += spans[i].Cycles()
		}
	}
	root := &SpanNode{}
	for i := range spans {
		s := &spans[i]
		node := root
		for _, name := range path(s) {
			node = node.child(name)
		}
		node.Count++
		node.Cycles += s.Cycles()
		node.Self += s.Cycles() - childCycles[s.ID]
	}
	var sortRec func(n *SpanNode)
	sortRec = func(n *SpanNode) {
		sort.Slice(n.Children, func(i, j int) bool {
			if n.Children[i].Cycles != n.Children[j].Cycles {
				return n.Children[i].Cycles > n.Children[j].Cycles
			}
			return n.Children[i].Name < n.Children[j].Name
		})
		for _, c := range n.Children {
			sortRec(c)
		}
	}
	sortRec(root)
	return root
}

// WriteFolded dumps the call tree's self cycles in collapsed-stack
// ("folded") format — one sorted "frame;frame;frame self-cycles" line per
// node with self cycles — directly consumable by flamegraph.pl and
// speedscope. While every span ends inside its parent, as it does on a core
// no other goroutine drives, no Self is negative and the lines sum to the
// tree's top-level inclusive cycles.
func WriteFolded(w io.Writer, tree *SpanNode) error {
	var lines []string
	tree.Walk(func(path []string, n *SpanNode) {
		if n.Self > 0 {
			lines = append(lines, fmt.Sprintf("%s %d\n", strings.Join(path, ";"), n.Self))
		}
	})
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := io.WriteString(w, l); err != nil {
			return err
		}
	}
	return nil
}
