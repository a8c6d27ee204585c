package bench

import (
	"encoding/json"
	"expvar"
	"fmt"
	"sort"
	"sync"

	"nestedenclave/internal/trace"
)

// ExperimentSnapshot is the per-experiment observability record cmd/repro
// persists next to the rendered tables (BENCH_<name>.json): the merged
// counters, simulated cycles, per-enclave attribution, and operation latency
// histograms of every Rig the experiment booted.
type ExperimentSnapshot struct {
	Name string `json:"name"`
	// Rigs is how many simulator instances the experiment booted.
	Rigs int `json:"rigs"`
	// Cycles is the total simulated cycles across all rigs.
	Cycles int64 `json:"cycles"`
	// WallMS is the host wall-clock the experiment took (stamped by the
	// caller; zero when not measured).
	WallMS float64 `json:"wall_ms,omitempty"`
	// Counters holds the merged non-zero event counters, keyed by event name.
	Counters map[string]int64 `json:"counters"`
	// PerEnclave holds per-EID counters (present only for rigs that ran with
	// observation enabled), keyed by decimal EID then event name.
	PerEnclave map[string]map[string]int64 `json:"per_enclave,omitempty"`
	// Histograms holds merged latency histograms keyed by operation name.
	Histograms map[string]HistogramJSON `json:"histograms,omitempty"`
	// Extra holds experiment-specific scalar metrics recorded via
	// RecordExtra — derived quantities (per-op cycles, allocations per walk)
	// that the counter merge cannot compute. The perf gate compares them
	// like any other metric.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// HistogramJSON is the persisted form of a latency histogram: sample count,
// cycle sum, and the non-empty log2 buckets keyed by upper bound.
type HistogramJSON struct {
	Count   int64            `json:"count"`
	SumCyc  int64            `json:"sum_cycles"`
	MeanCyc float64          `json:"mean_cycles"`
	P50Cyc  int64            `json:"p50_cycles"`
	P99Cyc  int64            `json:"p99_cycles"`
	Buckets map[string]int64 `json:"buckets"`
}

// expScope accumulates the recorders of every Rig booted between
// BeginExperiment and EndExperiment.
type expScope struct {
	name  string
	recs  []*trace.Recorder
	extra map[string]float64
}

var (
	obsMu    sync.Mutex
	curScope *expScope
	// lastSnapshots feeds the expvar endpoint: the most recent snapshot per
	// experiment name.
	lastSnapshots = map[string]*ExperimentSnapshot{}
)

// BeginExperiment opens an observation scope: every Rig booted until the
// matching EndExperiment registers its recorder with the scope. Scopes do not
// nest; beginning a new one replaces the old.
func BeginExperiment(name string) {
	obsMu.Lock()
	defer obsMu.Unlock()
	curScope = &expScope{name: name}
}

// RecordExtra attaches an experiment-specific scalar metric to the open
// scope; it lands in the snapshot's Extra map (and thus under the perf
// gate). No-op when no scope is open, so experiments can record
// unconditionally.
func RecordExtra(name string, v float64) {
	obsMu.Lock()
	defer obsMu.Unlock()
	if curScope == nil {
		return
	}
	if curScope.extra == nil {
		curScope.extra = map[string]float64{}
	}
	curScope.extra[name] = v
}

// registerRecorder attaches a freshly booted rig's recorder to the open
// experiment scope, if any. Called by NewRig.
func registerRecorder(r *trace.Recorder) {
	obsMu.Lock()
	defer obsMu.Unlock()
	if curScope != nil {
		curScope.recs = append(curScope.recs, r)
	}
}

// EndExperiment closes the open scope and returns the merged snapshot of
// every recorder the experiment used. Returns nil when no scope is open or
// the experiment booted no rigs.
func EndExperiment() *ExperimentSnapshot {
	obsMu.Lock()
	scope := curScope
	curScope = nil
	obsMu.Unlock()
	if scope == nil || len(scope.recs) == 0 {
		return nil
	}
	snap := &ExperimentSnapshot{
		Name:     scope.name,
		Rigs:     len(scope.recs),
		Counters: map[string]int64{},
		Extra:    scope.extra,
	}
	type histAcc struct {
		count, sum int64
		buckets    map[string]int64
		merged     trace.HistSnapshot
	}
	hists := map[string]*histAcc{}
	for _, rec := range scope.recs {
		snap.Cycles += rec.Cycles()
		var cs trace.CounterSet
		rec.SnapshotInto(&cs)
		for name, v := range cs.Map() {
			snap.Counters[name] += v
		}
		for eid, set := range rec.PerEnclave() {
			if snap.PerEnclave == nil {
				snap.PerEnclave = map[string]map[string]int64{}
			}
			key := eidLabel(eid)
			dst := snap.PerEnclave[key]
			if dst == nil {
				dst = map[string]int64{}
				snap.PerEnclave[key] = dst
			}
			for name, v := range set.Map() {
				dst[name] += v
			}
		}
		for name, hs := range rec.HistSnapshots() {
			acc := hists[name]
			if acc == nil {
				acc = &histAcc{buckets: map[string]int64{}}
				hists[name] = acc
			}
			acc.count += hs.Count
			acc.sum += hs.Sum
			for i := range acc.merged.Buckets {
				acc.merged.Buckets[i] += hs.Buckets[i]
			}
			for k, v := range hs.NonZeroBuckets() {
				acc.buckets[k] += v
			}
		}
	}
	for name, acc := range hists {
		if snap.Histograms == nil {
			snap.Histograms = map[string]HistogramJSON{}
		}
		acc.merged.Count = acc.count
		acc.merged.Sum = acc.sum
		snap.Histograms[name] = HistogramJSON{
			Count:   acc.count,
			SumCyc:  acc.sum,
			MeanCyc: acc.merged.Mean(),
			P50Cyc:  acc.merged.Quantile(0.50),
			P99Cyc:  acc.merged.Quantile(0.99),
			Buckets: acc.buckets,
		}
	}
	obsMu.Lock()
	lastSnapshots[snap.Name] = snap
	obsMu.Unlock()
	return snap
}

// eidLabel renders an attribution key: EID 0 is untrusted execution.
func eidLabel(eid uint64) string {
	if eid == trace.NoEID {
		return "untrusted"
	}
	return fmt.Sprintf("enclave_%d", eid)
}

var publishOnce sync.Once

// PublishExpvar exposes the latest experiment snapshots under the
// "nesclave_experiments" expvar, for the opt-in debug HTTP endpoint the repro
// harness serves alongside net/http/pprof. Safe to call more than once.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("nesclave_experiments", expvar.Func(func() any {
			obsMu.Lock()
			defer obsMu.Unlock()
			names := make([]string, 0, len(lastSnapshots))
			for n := range lastSnapshots {
				names = append(names, n)
			}
			sort.Strings(names)
			out := make([]*ExperimentSnapshot, 0, len(names))
			for _, n := range names {
				out = append(out, lastSnapshots[n])
			}
			return out
		}))
	})
}

// MarshalSnapshot renders a snapshot as indented JSON, the BENCH_*.json
// format.
func MarshalSnapshot(s *ExperimentSnapshot) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
