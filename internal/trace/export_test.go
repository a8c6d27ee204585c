package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestChromeTraceGolden pins the exact JSON layout for a minimal trace: one
// metadata event naming the enclave lane, one complete ("X") span. Keeping
// the byte-exact form stable matters because external tools parse it.
func TestChromeTraceGolden(t *testing.T) {
	recs := []Record{
		{Seq: 1, Cycles: 8000, Cost: 4000, Core: 2, EID: 3, Event: EvNEENTER},
	}
	got, err := ChromeTrace(recs, CyclesPerUS)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":3,"tid":0,"args":{"name":"enclave 3"}},` +
		`{"name":"NEENTER","ph":"X","ts":1,"dur":1,"pid":3,"tid":2,"args":{"seq":1}}` +
		`],"displayTimeUnit":"ms"}`
	if string(got) != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	recs := []Record{
		{Seq: 1, Cycles: 7300, Cost: 7300, Core: 0, EID: 1, Event: EvEENTER},
		{Seq: 2, Cycles: 7300, Cost: 0, Core: 0, EID: 1, Event: EvTLBMiss, Detail: 42},
		{Seq: 3, Cycles: 13500, Cost: 6200, Core: 0, EID: 2, Event: EvNEENTER},
		{Seq: 4, Cycles: 18900, Cost: 5400, Core: 0, EID: 2, Event: EvNEEXIT},
		{Seq: 5, Cycles: 25400, Cost: 6500, Core: 0, EID: 1, Event: EvEEXIT},
		{Seq: 6, Cycles: 25400, Cost: 0, Core: -1, EID: 0, Event: EvIPI},
	}
	b, err := ChromeTrace(recs, CyclesPerUS)
	if err != nil {
		t.Fatal(err)
	}
	// The output must be valid JSON of the trace_event container form.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  uint64         `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 3 metadata events (EIDs 0, 1, 2) + 6 records.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("event count = %d", len(doc.TraceEvents))
	}
	var spans, instants, meta int
	pids := map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Errorf("span %q has dur %f", e.Name, e.Dur)
			}
			pids[e.Pid] = true
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 3 || spans != 4 || instants != 2 {
		t.Fatalf("meta/spans/instants = %d/%d/%d", meta, spans, instants)
	}
	// The EENTER/EEXIT and NEENTER/NEEXIT spans must land on distinct
	// enclave lanes.
	if !pids[1] || !pids[2] {
		t.Fatalf("span pids: %v", pids)
	}
	// Span timing: ts is the charge start, ts+dur the cycle clock after.
	e := doc.TraceEvents[meta] // first record (EENTER)
	if e.Name != "EENTER" || e.Ts != 0 || e.Dur != 7300/CyclesPerUS {
		t.Fatalf("EENTER span: ts=%f dur=%f", e.Ts, e.Dur)
	}
	// The TLB miss detail must survive into args.
	miss := doc.TraceEvents[meta+1]
	if miss.Name != "tlb_miss" || miss.Args["detail"].(float64) != 42 {
		t.Fatalf("tlb_miss args: %v", miss.Args)
	}
}

func TestWritePrometheus(t *testing.T) {
	var r Recorder
	r.EnableObservation(0)
	r.ChargeTo(1, 0, EvEENTER, CostEENTER)
	r.ChargeTo(2, 0, EvNEENTER, CostNEENTER)
	r.Charge(EvTLBMiss, 0)
	r.Hist(OpECall).Observe(14000)
	r.Hist(OpECall).Observe(13000)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"nesclave_cycles_total 13500",
		`nesclave_events_total{event="EENTER"} 1`,
		`nesclave_events_total{event="NEENTER"} 1`,
		`nesclave_events_total{event="tlb_miss"} 1`,
		`nesclave_enclave_events_total{eid="1",event="EENTER"} 1`,
		`nesclave_enclave_events_total{eid="2",event="NEENTER"} 1`,
		`nesclave_op_cycles_count{op="ecall"} 2`,
		`nesclave_op_cycles_sum{op="ecall"} 27000`,
		`nesclave_op_cycles_bucket{op="ecall",le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
	// Cumulative bucket counts: both samples land in bucket 14 (le=16383).
	if !strings.Contains(out, `nesclave_op_cycles_bucket{op="ecall",le="16383"} 2`) {
		t.Errorf("cumulative bucket line missing:\n%s", out)
	}
}

// TestWritePrometheusQuantiles is the golden test for the quantile gauge
// block: a skewed distribution with known bucket placement must produce
// exactly these p50/p99/p999 lines (log2-bucket upper bounds).
func TestWritePrometheusQuantiles(t *testing.T) {
	var r Recorder
	r.EnableObservation(0)
	// 98 fast samples (bucket le=127), one mid (le=1023), one tail
	// (le=131071): p50 hits the fast bucket, p99 the mid, p999 the tail.
	for i := 0; i < 98; i++ {
		r.Hist(OpECall).Observe(100)
	}
	r.Hist(OpECall).Observe(1000)
	r.Hist(OpECall).Observe(100_000)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	golden := []string{
		"# HELP nesclave_op_cycles_quantile Latency quantiles of composite operations (log2-bucket upper bounds).",
		"# TYPE nesclave_op_cycles_quantile gauge",
		`nesclave_op_cycles_quantile{op="ecall",q="0.5"} 127`,
		`nesclave_op_cycles_quantile{op="ecall",q="0.99"} 1023`,
		`nesclave_op_cycles_quantile{op="ecall",q="0.999"} 131071`,
	}
	for _, want := range golden {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing quantile line %q in:\n%s", want, out)
		}
	}
	// Ops with no observations must not emit quantile series.
	if strings.Contains(out, `nesclave_op_cycles_quantile{op="ocall"`) {
		t.Errorf("quantile series for unobserved op leaked:\n%s", out)
	}
}

// TestWriteFolded pins the collapsed-stack export of the call tree: one
// sorted "stack self-cycles" line per node with self cycles, none for a node
// whose time is all in its children.
func TestWriteFolded(t *testing.T) {
	var r Recorder
	r.EnableObservation(0)
	outer := r.BeginSpan(0, 1, "ecall:q")
	r.ChargeTo(1, 0, EvEENTER, 350)
	inner := r.BeginSpan(0, 2, "n_ecall:f")
	r.ChargeTo(2, 0, EvNEENTER, 100)
	inner.End()
	outer.End()
	wrap := r.BeginSpan(1, 1, "wrap")
	walk := r.BeginSpan(1, 1, "page_walk")
	r.ChargeTo(1, 1, EvPageWalk, 60)
	walk.End()
	wrap.End()

	var buf bytes.Buffer
	if err := WriteFolded(&buf, AggregateSpans(r.Spans())); err != nil {
		t.Fatal(err)
	}
	want := "ecall:q 350\necall:q;n_ecall:f 100\nwrap;page_walk 60\n"
	if buf.String() != want {
		t.Errorf("folded output = %q, want %q", buf.String(), want)
	}
}
