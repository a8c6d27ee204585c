package main

import "nestedenclave/internal/trace"

type metricVal struct {
	name, unit string
	value      float64
}

// endToEnd is what a user of the simulator sees: its host throughput and
// memory, the simulated cost of the modelled design, and set-up time. A run
// prints these with tracing off. Host latency is a diagnostic of the traced
// run: with one closed-loop client it carries the same cost as throughput,
// and it spreads further between runs on a shared host.
func (m *measurement) endToEnd() []metricVal {
	ops := float64(max(m.timedOps, 1))
	return []metricVal{
		{"ops_per_s", "req/s", m.opsPerS},
		{"sim_cycles_per_op", "cycles", float64(m.simCycles) / float64(m.simOps)},
		{"sim_cycles_p99", "cycles", float64(m.simP99)},
		{"alloc_bytes_per_op", "B", float64(m.allocBytes) / ops},
		{"heap_live_mib", "MiB", float64(m.heapLive) / (1 << 20)},
		{"setup_s", "s", median(m.setupS)},
	}
}

// simEvents are the simulator counters reported per request of the
// simulated-cost window.
var simEvents = []trace.Event{
	trace.EvEENTER, trace.EvEEXIT, trace.EvNEENTER, trace.EvNEEXIT, trace.EvAEX, trace.EvTLBFlush,
	trace.EvTLBHit, trace.EvTLBMiss, trace.EvPageWalk, trace.EvValidateStep, trace.EvNestedValidate,
	trace.EvLLCHit, trace.EvLLCMiss, trace.EvMEEEncrypt, trace.EvMEEDecrypt,
	trace.EvEWB, trace.EvELD, trace.EvIPI, trace.EvFaultPF,
}

// simCycleOps are the latency histograms whose cycle sums are reported.
var simCycleOps = []trace.Op{
	trace.OpECall, trace.OpNOCall, trace.OpPageWalk, trace.OpNestedWalk, trace.OpEWB, trace.OpELD,
}

// perLayer is what a traced run prints: host time per layer from the
// benchmark's spans, Go runtime costs, diagnostics, and the simulator's own
// counters from the simulated-cost window. Every value is per request.
func (m *measurement) perLayer() []metricVal {
	traced := float64(max(m.tracedOps, 1))
	self := func(k kind) float64 { return float64(m.layers[k].SelfNs) / traced }
	count := func(k kind) float64 { return float64(m.layers[k].Count) / traced }
	ops := float64(max(m.timedOps, 1))
	out := []metricVal{
		{"layer.sdk.ecall.self_ns", "ns", self(kECall)},
		{"layer.sdk.n_ocall.self_ns", "ns", self(kNOCall)},
		{"layer.sdk.heap.ns", "ns", self(kHeap)},
		{"layer.access.tlbhit.ns", "ns", self(kTLBHit)},
		{"layer.access.tlbhit.count", "count", count(kTLBHit)},
		{"layer.access.walk.ns", "ns", self(kWalk)},
		{"layer.access.walk.count", "count", count(kWalk)},
		{"layer.access.reload.ns", "ns", self(kReload)},
		{"layer.access.reload.count", "count", count(kReload)},
		{"layer.sqldb.exec.ns", "ns", self(kExec)},
		{"layer.sqldb.parse.ns", "ns", self(kParse)},
		{"layer.crypto.gcm.ns", "ns", self(kGCM)},
		{"layer.app.lock_wait_ns", "ns", self(kLockWait)},
		{"layer.client.other_ns", "ns", self(kRequest)},
		{"layer.client.request_ns", "ns", float64(m.layers[kRequest].InclNs) / traced},
		{"runtime.mallocs_per_op", "count", float64(m.mallocs) / ops},
		{"runtime.gc_per_kop", "1/kop", float64(m.numGC) * 1000 / ops},
		{"host_us_p50", "us", float64(m.p50Ns) / 1e3},
		{"host_us_p99", "us", float64(m.p99Ns) / 1e3},
		{"host.samples", "count", float64(m.samples)},
		{"trace.overhead_pct", "%", m.overheadPct()},
	}
	n := float64(m.simOps)
	c := &m.simCounters
	for _, e := range simEvents {
		out = append(out, metricVal{"sim." + e.String(), "count", float64(c[e]) / n})
	}
	walks := m.simHist[trace.OpPageWalk.String()].count + m.simHist[trace.OpNestedWalk.String()].count
	out = append(out,
		metricVal{"sim.tlb_hit_ratio", "fraction", ratio(c[trace.EvTLBHit], c[trace.EvTLBHit]+c[trace.EvTLBMiss])},
		metricVal{"sim.nested_walk_share", "fraction", ratio(m.simHist[trace.OpNestedWalk.String()].count, walks)},
		metricVal{"sim.llc_hit_ratio", "fraction", ratio(c[trace.EvLLCHit], c[trace.EvLLCHit]+c[trace.EvLLCMiss])},
	)
	for _, op := range simCycleOps {
		out = append(out, metricVal{"sim.cyc." + op.String(), "cycles", float64(m.simHist[op.String()].sum) / n})
	}
	return out
}

// overheadPct compares the host time per request of the traced blocks with
// that of the untraced blocks of the same timed phase.
func (m *measurement) overheadPct() float64 {
	if m.tracedOps == 0 || m.plainOps == 0 {
		return 0
	}
	perTraced := float64(m.tracedNs) / float64(m.tracedOps)
	perPlain := float64(m.plainNs) / float64(m.plainOps)
	return (perTraced/perPlain - 1) * 100
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
