//nescheck:allow determinism the benchmark measures host time by design; its simulated metrics come from trace.Recorder over a fixed request window

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nestedenclave/internal/trace"
)

var epoch = time.Now()

// nanotime reads the host's monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// opts sizes one run.
type opts struct {
	setups         int
	warmup, simOps int
	seconds        float64
	traced         bool
}

// rateWindowNs is the nominal length of the windows the timed phase is cut
// into; ops_per_s is the median of their rates, so a stall confined to a few
// windows does not move it.
const rateWindowNs = 500_000_000

// blockNs is the length of each block of a traced run's timed phase. Blocks
// alternate between untraced and traced requests, so the tracing overhead is
// measured against the same run.
const blockNs = 50_000_000

// measurement is what one run of one workload observed.
type measurement struct {
	workload          string
	seed              int64
	traced            bool
	attempted, failed int64
	shown             atomic.Int32 // failures printed so far

	setupS []float64

	// The simulated-cost window: simOps requests issued one at a time, so
	// every simulated metric repeats exactly for a seed.
	simOps      int
	simCycles   int64
	simP99      int64
	simCounters trace.CounterSet
	simHist     map[string]histDelta

	// The timed phase: clients in a closed loop for the run's seconds.
	timedOps, timedNs          int64
	opsPerS                    float64
	p50Ns, p99Ns               int64
	samples                    int
	allocBytes, mallocs, numGC uint64
	heapLive                   uint64

	// Traced runs only.
	tracers             []*tracer
	layers              [numKinds]layerAgg
	tracedOps, tracedNs int64
	plainOps, plainNs   int64
}

type histDelta struct{ count, sum int64 }

// count tallies a request of the warm-up or the simulated-cost window.
func (m *measurement) count(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		m.logFailure(err)
	}
}

// logFailure prints the first few failures; a failure never stops a run.
func (m *measurement) logFailure(err error) {
	if m.shown.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "%s: request failed: %v\n", m.workload, err)
	}
}

// run generates the workload's inputs from the seed, sets it up o.setups
// times (timing each; the last set-up is the one measured), warms it up, takes
// the simulated-cost window and then the timed phase.
func run(w *workload, seed int64, o opts) (*measurement, error) {
	setup, err := w.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	m := &measurement{workload: w.name, seed: seed, traced: o.traced, simOps: o.simOps}
	var svc service
	for i := 0; i < o.setups; i++ {
		svc = nil // collect the previous system before timing the next set-up
		runtime.GC()
		t0 := nanotime()
		s, err := setup()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.setupS = append(m.setupS, float64(nanotime()-t0)/1e9)
		svc = s
	}
	for i := 0; i < o.warmup; i++ {
		m.count(svc.do(i%w.clients, nil))
	}
	simNs := m.simWindow(svc, w.clients)
	// Size each client's latency buffer for twice the rate the window ran
	// at, so the timed phase never allocates for it.
	expect := float64(o.simOps) / float64(max(simNs, 1)) * o.seconds * 1e9
	m.timed(svc, w.clients, o, 2*int(expect)+4096)
	runtime.KeepAlive(svc) // heap_live_mib, read inside timed, must count the system
	return m, nil
}

func (m *measurement) simWindow(svc service, clients int) int64 {
	rec := svc.recorder()
	var before trace.CounterSet
	rec.SnapshotInto(&before)
	h0 := rec.HistSnapshots()
	per := make([]int64, m.simOps)
	t0 := nanotime()
	start := rec.Cycles()
	for i := range per {
		c0 := rec.Cycles()
		m.count(svc.do(i%clients, nil))
		per[i] = rec.Cycles() - c0
	}
	m.simCycles = rec.Cycles() - start
	ns := nanotime() - t0
	rec.DiffInto(&before, &m.simCounters)
	m.simHist = make(map[string]histDelta)
	for name, h := range rec.HistSnapshots() {
		m.simHist[name] = histDelta{count: h.Count - h0[name].Count, sum: h.Sum - h0[name].Sum}
	}
	slices.Sort(per)
	m.simP99 = percentile(per, 0.99)
	return ns
}

// client is one closed-loop client of the timed phase.
type client struct {
	lat                 []int64
	win                 []int64 // requests completed in each rate window
	failed              int64
	end                 int64
	tracedOps, tracedNs int64
	plainOps, plainNs   int64
	tr                  *tracer
	_                   [64]byte // keeps two clients' counters off one cache line
}

func (cl *client) loop(m *measurement, svc service, c int, start, deadline, winNs int64, traced bool) {
	blockStart, on := start, false
	closeBlock := func(now int64) {
		if on {
			cl.tracedNs += now - blockStart
		} else {
			cl.plainNs += now - blockStart
		}
	}
	for {
		t0 := nanotime()
		if t0 >= deadline {
			break
		}
		if traced && t0-blockStart >= blockNs {
			closeBlock(t0)
			on, blockStart = !on, t0
		}
		var tr *tracer
		if on {
			tr = cl.tr
			tr.beginRequest()
		}
		err := svc.do(c, tr)
		if on {
			tr.endRequest()
		}
		t1 := nanotime()
		if w := (t1 - start) / winNs; w < int64(len(cl.win)) {
			cl.win[w]++
		}
		if err != nil {
			cl.failed++
			m.logFailure(err)
		}
		if on {
			cl.tracedOps++
		} else {
			cl.plainOps++
			if len(cl.lat) < cap(cl.lat) {
				cl.lat = append(cl.lat, t1-t0)
			}
		}
	}
	cl.end = nanotime()
	closeBlock(cl.end)
}

func (m *measurement) timed(svc service, clients int, o opts, latCap int) {
	windows := max(1, int(math.Round(o.seconds*1e9/rateWindowNs)))
	winNs := int64(o.seconds * 1e9 / float64(windows))
	cls := make([]*client, clients)
	for c := range cls {
		cls[c] = &client{lat: make([]int64, 0, latCap), win: make([]int64, windows)}
		if o.traced {
			cls[c].tr = newTracer(svc.recorder(), c)
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := nanotime()
	deadline := start + int64(o.seconds*1e9)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c, cl := range cls {
		go func() {
			defer wg.Done()
			cl.loop(m, svc, c, start, deadline, winNs, o.traced)
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.numGC = uint64(ms1.NumGC - ms0.NumGC)

	var lat []int64
	var end int64
	rates := make([]float64, windows)
	for _, cl := range cls {
		for w, n := range cl.win {
			rates[w] += float64(n) / (float64(winNs) / 1e9)
		}
		lat = append(lat, cl.lat...)
		cl.lat = nil
		end = max(end, cl.end)
		m.tracedOps += cl.tracedOps
		m.tracedNs += cl.tracedNs
		m.plainOps += cl.plainOps
		m.plainNs += cl.plainNs
		m.failed += cl.failed
		if cl.tr != nil {
			m.tracers = append(m.tracers, cl.tr)
			for k := range m.layers {
				m.layers[k].Count += cl.tr.agg[k].Count
				m.layers[k].InclNs += cl.tr.agg[k].InclNs
				m.layers[k].SelfNs += cl.tr.agg[k].SelfNs
			}
		}
	}
	m.timedOps = m.tracedOps + m.plainOps
	m.attempted += m.timedOps
	m.timedNs = end - start
	m.opsPerS = median(rates)
	slices.Sort(lat)
	m.samples = len(lat)
	m.p50Ns, m.p99Ns = percentile(lat, 0.5), percentile(lat, 0.99)
	// Live heap is read with the latency samples dropped, so it measures the
	// simulator and its inputs, not how many requests the run completed.
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	m.heapLive = ms2.HeapAlloc
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
