package main

import (
	"fmt"

	"nestedenclave"
	"nestedenclave/internal/trace"
)

// workload is one named set of inputs the benchmark runs. Every workload is a
// closed loop: each client sends its next request only after the previous
// one has returned.
type workload struct {
	name    string
	clients int
	// setups is how many independent set-ups a run times; setup_s is their
	// median. Cheap set-ups are repeated more, so the median stays steady.
	setups int
	// warmup requests fill the TLBs, LLC and EPC before anything is
	// measured; simOps requests then form the deterministic window the
	// simulated-cost metrics are taken over.
	warmup, simOps int
	// diagnostic workloads run on request but are not in BENCHMARK.json, so
	// no change is gated on them.
	diagnostic bool
	// prepare generates every input from the seed and returns the set-up,
	// which boots a fresh system over those inputs each time it is called.
	prepare func(seed int64) (setup func() (service, error), err error)
}

// service is one set-up instance of a workload.
type service interface {
	// do runs client c's next request and checks its output against the
	// generator's oracle. A non-nil error is a failed or wrong request.
	// tr is nil for untraced requests.
	do(c int, tr *tracer) error
	recorder() *trace.Recorder
}

var workloads = []*workload{
	{name: "sql-ycsb", clients: 1, setups: 15, warmup: 20_000, simOps: 100_000, prepare: prepareSQL(1)},
	{name: "outer-stream", clients: 1, setups: 15, warmup: 1_000, simOps: 5_000, prepare: prepareStream},
	{name: "epc-thrash", clients: 1, setups: 5, warmup: 500, simOps: 3_000, prepare: prepareThrash},
	// Two busy client goroutines on a two-core shared host measure the
	// host's scheduler as much as the simulator: its throughput spread over
	// a quarter of its median between runs of the same code.
	{name: "sql-ycsb-2c", clients: 2, setups: 15, warmup: 20_000, simOps: 100_000, prepare: prepareSQL(2), diagnostic: true},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// loadNested signs the outer image and its inner images with one author, each
// expecting the other's measurement, loads them in the given order and
// associates every inner with the outer (NASSO). It returns the enclaves in
// load order.
func loadNested(sys *nestedenclave.System, outer *nestedenclave.Image, order []*nestedenclave.Image) ([]*nestedenclave.Enclave, error) {
	author := nestedenclave.NewAuthor()
	outerDigest := []nestedenclave.Digest{outer.Measure()}
	var innerDigests []nestedenclave.Digest
	for _, img := range order {
		if img != outer {
			innerDigests = append(innerDigests, img.Measure())
		}
	}
	var outerEnc *nestedenclave.Enclave
	var inners, loaded []*nestedenclave.Enclave
	for _, img := range order {
		var signed *nestedenclave.SignedImage
		if img == outer {
			signed = img.Sign(author, nil, innerDigests)
		} else {
			signed = img.Sign(author, outerDigest, nil)
		}
		e, err := sys.Load(signed)
		if err != nil {
			return nil, err
		}
		if img == outer {
			outerEnc = e
		} else {
			inners = append(inners, e)
		}
		loaded = append(loaded, e)
	}
	for _, in := range inners {
		if err := sys.Associate(in, outerEnc); err != nil {
			return nil, err
		}
	}
	return loaded, nil
}
