package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"nestedenclave/internal/trace"
)

// kind names one layer boundary the traced run times. Spans are opened by the
// benchmark's own code around its calls into each layer; the simulator itself
// is not instrumented.
type kind uint8

const (
	kRequest  kind = iota // one client request, end to end
	kECall                // sdk.Enclave.ECall
	kNOCall               // sdk.Env.NOCall
	kHeap                 // sdk.Env.Malloc or Free
	kTLBHit               // sdk.Env.Read/Write that neither missed the TLB nor reloaded a page
	kWalk                 // sdk.Env.Read/Write that missed the TLB
	kReload               // sdk.Env.Read/Write that reloaded an evicted EPC page
	kParse                // sqldb.Parse or sqldb.FormatStmt
	kGCM                  // AES-GCM seal or open of one value
	kExec                 // sqldb.DB.Exec
	kLockWait             // waiting for the engine mutex
	numKinds
)

var kindNames = [numKinds]string{
	kRequest:  "client.request",
	kECall:    "sdk.ecall",
	kNOCall:   "sdk.n_ocall",
	kHeap:     "sdk.heap",
	kTLBHit:   "access.tlbhit",
	kWalk:     "access.walk",
	kReload:   "access.reload",
	kParse:    "sqldb.parse",
	kGCM:      "crypto.gcm",
	kExec:     "sqldb.exec",
	kLockWait: "app.lock_wait",
}

// rawEvery keeps the full spans of one traced request in this many.
const rawEvery = 1000

type frame struct {
	kind           kind
	access         bool
	id             int64
	start, child   int64
	tlbMiss0, eld0 int64
}

// layerAgg totals one span kind. Self time is the span's duration minus the
// durations of its direct children, so the self times of all kinds add up to
// the request time exactly.
type layerAgg struct {
	Count  int64 `json:"count"`
	InclNs int64 `json:"incl_ns"`
	SelfNs int64 `json:"self_ns"`
}

type span struct {
	kind        kind
	id, parent  int64
	req         int64
	start, stop int64
}

// tracer records the spans of one client's requests. It is used by that
// client's goroutine only. A nil *tracer records nothing: untraced requests
// pass nil, so their only cost is a nil check per boundary.
type tracer struct {
	rec    *trace.Recorder
	client int
	stack  []frame
	agg    [numKinds]layerAgg
	reqs   int64 // requests traced so far
	keep   bool  // keep the raw spans of the current request
	spans  []span
	nextID int64
}

func newTracer(rec *trace.Recorder, client int) *tracer {
	return &tracer{rec: rec, client: client, stack: make([]frame, 0, 8)}
}

func (t *tracer) begin(k kind) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, frame{kind: k, id: t.nextID, start: nanotime()})
}

// beginAccess opens a span around one Env.Read or Env.Write. Its class —
// TLB hit, walk or reload — is decided when it ends, from the simulator's
// tlb_miss and eld counters. The counters are global, so with two clients
// running at once a span can be charged the other client's miss.
func (t *tracer) beginAccess() {
	if t == nil {
		return
	}
	t.begin(kTLBHit)
	f := &t.stack[len(t.stack)-1]
	f.access = true
	f.tlbMiss0 = t.rec.Get(trace.EvTLBMiss)
	f.eld0 = t.rec.Get(trace.EvELD)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := nanotime()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if f.access {
		switch {
		case t.rec.Get(trace.EvELD) != f.eld0:
			f.kind = kReload
		case t.rec.Get(trace.EvTLBMiss) != f.tlbMiss0:
			f.kind = kWalk
		}
	}
	d := now - f.start
	a := &t.agg[f.kind]
	a.Count++
	a.InclNs += d
	a.SelfNs += d - f.child
	var parent int64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if t.keep {
		t.spans = append(t.spans, span{kind: f.kind, id: f.id, parent: parent, req: t.reqs, start: f.start, stop: now})
	}
}

func (t *tracer) beginRequest() {
	t.keep = t.reqs%rawEvery == 0
	t.begin(kRequest)
}

func (t *tracer) endRequest() {
	t.end()
	t.reqs++
}

// traceReport is the per-layer table written as layers_<workload>.json.
type traceReport struct {
	Workload       string      `json:"workload"`
	Seed           int64       `json:"seed"`
	TracedRequests int64       `json:"traced_requests"`
	OverheadPct    float64     `json:"overhead_pct"`
	Layers         []layerLine `json:"layers"`
}

type layerLine struct {
	Name string `json:"name"`
	layerAgg
	CountPerReq  float64 `json:"count_per_request"`
	SelfNsPerReq float64 `json:"self_ns_per_request"`
}

type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeTrace writes the kept raw spans as Chrome trace_event JSON
// (trace_<workload>.json, one thread per client) and the per-layer table
// (layers_<workload>.json) into dir.
func writeTrace(dir string, rep traceReport, tracers []*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var events []chromeEvent
	for _, t := range tracers {
		for _, s := range t.spans {
			events = append(events, chromeEvent{
				Name: kindNames[s.kind], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.stop-s.start) / 1e3,
				Pid: 1, Tid: t.client,
				Args: map[string]int64{"request": s.req, "span": s.id, "parent": s.parent},
			})
		}
	}
	if err := writeJSON(filepath.Join(dir, "trace_"+rep.Workload+".json"), map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers_"+rep.Workload+".json"), rep)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
