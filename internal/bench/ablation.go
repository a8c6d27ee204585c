//nescheck:allow determinism the ablation compares host wall time of call paths by design; simulated costs are tracked separately via trace.Recorder cycles

package bench

import (
	"fmt"
	"time"

	"nestedenclave/internal/datasets"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// This file implements the ablation experiments DESIGN.md calls out: each
// isolates one design choice of the nested-enclave proposal and measures
// what it buys (or costs).

// AblationTransitionPath quantifies the direct NEENTER/NEEXIT path against
// the only alternative monolithic SGX offers: exiting to the untrusted
// world and re-entering the other enclave (ocall + ecall detour). This is
// the paper's core motivation — "switching ... does not require to jump to
// the non-enclave context".
type AblationTransitionResult struct {
	DirectUSPerCall float64
	DetourUSPerCall float64
	DirectCycles    int64
	DetourCycles    int64
}

// AblationTransitionPath runs iters calls down each path.
func AblationTransitionPath(iters int) (*AblationTransitionResult, error) {
	if iters <= 0 {
		iters = 20_000
	}
	r, err := NewRig(SmallMachine())
	if err != nil {
		return nil, err
	}
	outerImg := sdk.NewImage("ab-outer", 0x2000_0000, sdk.DefaultLayout())
	innerImg := sdk.NewImage("ab-inner", 0x1000_0000, sdk.DefaultLayout())
	outerImg.AllowOCall("detour")
	innerImg.RegisterECall("noop", func(env *sdk.Env, args []byte) ([]byte, error) { return nil, nil })
	outerImg.RegisterECall("direct_loop", func(env *sdk.Env, args []byte) ([]byte, error) {
		inner := env.E.Inners()[0]
		for i := 0; i < iters; i++ {
			if _, err := env.NECall(inner, "noop", nil); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	outerImg.RegisterECall("detour_loop", func(env *sdk.Env, args []byte) ([]byte, error) {
		for i := 0; i < iters; i++ {
			// The monolithic detour: leave this enclave (ocall), have the
			// untrusted runtime ecall into the peer, and come back.
			if _, err := env.OCall("detour", nil); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	inner, outer, err := r.LoadPair(innerImg, outerImg)
	if err != nil {
		return nil, err
	}
	r.Host.RegisterOCall("detour", func(args []byte) ([]byte, error) {
		return inner.ECall("noop", nil)
	})

	res := &AblationTransitionResult{}
	c0 := r.M.Rec.Cycles()
	start := time.Now()
	if _, err := outer.ECall("direct_loop", nil); err != nil {
		return nil, err
	}
	res.DirectUSPerCall = us(time.Since(start), iters)
	res.DirectCycles = (r.M.Rec.Cycles() - c0) / int64(iters)

	c0 = r.M.Rec.Cycles()
	start = time.Now()
	if _, err := outer.ECall("detour_loop", nil); err != nil {
		return nil, err
	}
	res.DetourUSPerCall = us(time.Since(start), iters)
	res.DetourCycles = (r.M.Rec.Cycles() - c0) / int64(iters)
	return res, nil
}

// RenderAblationTransition formats the result.
func RenderAblationTransition(a *AblationTransitionResult) *Table {
	t := &Table{
		Title:   "Ablation — direct NEENTER/NEEXIT vs exit-and-re-enter detour",
		Headers: []string{"Path", "us/call", "model cycles/call"},
	}
	t.AddRow("direct (n_ecall)", f2(a.DirectUSPerCall), fmt.Sprint(a.DirectCycles))
	t.AddRow("detour (ocall + ecall)", f2(a.DetourUSPerCall), fmt.Sprint(a.DetourCycles))
	return t
}

// AblationShootdownResult compares the precise inner-aware ETRACK tracker
// with the paper's "simplified, but potentially more costly" broadcast
// alternative, counting shootdown IPIs during an eviction storm.
type AblationShootdownResult struct {
	PreciseIPIs   int64
	BroadcastIPIs int64
	Evictions     int
}

// AblationShootdown evicts/reloads an outer page n times under each policy
// while an unrelated core runs non-enclave work.
func AblationShootdown(n int) (*AblationShootdownResult, error) {
	if n <= 0 {
		n = 50
	}
	res := &AblationShootdownResult{Evictions: n}
	for _, broadcast := range []bool{false, true} {
		r, err := NewRig(SmallMachine())
		if err != nil {
			return nil, err
		}
		if broadcast {
			r.M.Tracker = sgx.BroadcastTracker{}
		}
		outerImg := sdk.NewImage("sd-outer", 0x2000_0000, sdk.DefaultLayout())
		innerImg := sdk.NewImage("sd-inner", 0x1000_0000, sdk.DefaultLayout())
		outerImg.RegisterECall("touch", func(env *sdk.Env, args []byte) ([]byte, error) {
			_, err := env.Read(env.E.Image().HeapBase(), 8)
			return nil, err
		})
		_, outer, err := r.LoadPair(innerImg, outerImg)
		if err != nil {
			return nil, err
		}
		heap := outerImg.HeapBase()
		for i := 0; i < n; i++ {
			if _, err := outer.ECall("touch", nil); err != nil {
				return nil, err
			}
			if err := r.K.Driver.EvictPage(r.Host.Proc, outer.SECS(), heap); err != nil {
				return nil, fmt.Errorf("evict %d (broadcast=%v): %w", i, broadcast, err)
			}
		}
		ipis := r.M.Rec.Get(trace.EvIPI)
		if broadcast {
			res.BroadcastIPIs = ipis
		} else {
			res.PreciseIPIs = ipis
		}
	}
	return res, nil
}

// RenderAblationShootdown formats the result.
func RenderAblationShootdown(a *AblationShootdownResult) *Table {
	t := &Table{
		Title:   "Ablation — ETRACK thread tracking: precise (inner-aware) vs broadcast-to-all-cores",
		Headers: []string{"Policy", "shootdown IPIs", "per eviction"},
		Notes:   []string{"IV-E: broadcast 'can potentially cause exceptions even for unrelated cores, but the tracking becomes simpler'"},
	}
	t.AddRow("precise (InnerAwareTracker)", fmt.Sprint(a.PreciseIPIs), f2(float64(a.PreciseIPIs)/float64(a.Evictions)))
	t.AddRow("broadcast", fmt.Sprint(a.BroadcastIPIs), f2(float64(a.BroadcastIPIs)/float64(a.Evictions)))
	return t
}

// AblationTLBFlushResult quantifies the cost of the mandatory TLB flush on
// every nested transition: NEENTER/NEEXIT must flush so the "TLB holds only
// valid translations" invariant survives the protection-domain change. The
// measurement separates the flush cycles from the rest of the transition
// and counts the refill misses the flushes induce.
type AblationTLBFlushResult struct {
	FlushesPerCall      float64
	RefillMissesPerCall float64
	FlushCycleShare     float64 // flush cycles / total cycles of the run
}

// AblationTLBFlush drives n_ecall round trips in which the inner enclave
// touches a small working set, so every flush forces refills.
func AblationTLBFlush(iters int) (*AblationTLBFlushResult, error) {
	if iters <= 0 {
		iters = 5_000
	}
	r, err := NewRig(SmallMachine())
	if err != nil {
		return nil, err
	}
	outerImg := sdk.NewImage("tf-outer", 0x2000_0000, sdk.DefaultLayout())
	innerImg := sdk.NewImage("tf-inner", 0x1000_0000, sdk.DefaultLayout())
	innerImg.RegisterECall("touch", func(env *sdk.Env, args []byte) ([]byte, error) {
		// Touch four pages of the inner heap — each call re-fills what the
		// transition flushed.
		for i := 0; i < 4; i++ {
			if _, err := env.Read(env.E.Image().HeapBase()+isa.VAddr(i)*isa.PageSize, 8); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	outerImg.RegisterECall("drive", func(env *sdk.Env, args []byte) ([]byte, error) {
		inner := env.E.Inners()[0]
		for i := 0; i < iters; i++ {
			if _, err := env.NECall(inner, "touch", nil); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	_, outer, err := r.LoadPair(innerImg, outerImg)
	if err != nil {
		return nil, err
	}
	flush0 := r.M.Rec.Get(trace.EvTLBFlush)
	miss0 := r.M.Rec.Get(trace.EvTLBMiss)
	cyc0 := r.M.Rec.Cycles()
	if _, err := outer.ECall("drive", nil); err != nil {
		return nil, err
	}
	flushes := r.M.Rec.Get(trace.EvTLBFlush) - flush0
	misses := r.M.Rec.Get(trace.EvTLBMiss) - miss0
	cycles := r.M.Rec.Cycles() - cyc0
	return &AblationTLBFlushResult{
		FlushesPerCall:      float64(flushes) / float64(iters),
		RefillMissesPerCall: float64(misses) / float64(iters),
		FlushCycleShare:     float64(flushes*trace.CostTLBFlush) / float64(cycles),
	}, nil
}

// RenderAblationTLBFlush formats the result.
func RenderAblationTLBFlush(a *AblationTLBFlushResult) *Table {
	t := &Table{
		Title:   "Ablation — TLB flush cost on nested transitions",
		Headers: []string{"flushes/n_ecall", "refill misses/n_ecall", "flush share of cycles"},
		Notes:   []string{"the flush is mandatory: skipping it would leave inner translations visible to the outer enclave"},
	}
	t.AddRow(f2(a.FlushesPerCall), f2(a.RefillMissesPerCall), f3(a.FlushCycleShare))
	return t
}

// AblationDepthRow measures access-validation cost vs nesting depth (§VIII:
// "arbitrary levels of nesting only increase the validation time").
type AblationDepthRow struct {
	Depth         int
	ValidateSteps int64 // steps for one innermost->outermost page fill
	ChainCycles   int64 // simulated cycles of one chain round trip
}

// AblationNestingDepth builds chains of the given depths; for each, the
// innermost enclave reads the outermost enclave's memory (one TLB fill) and
// the full n_ecall chain is traversed.
func AblationNestingDepth(depths []int) ([]AblationDepthRow, error) {
	if len(depths) == 0 {
		depths = []int{2, 3, 4, 5}
	}
	var rows []AblationDepthRow
	for _, depth := range depths {
		cfg := SmallMachine()
		cfg.Nesting = sgx.NestingConfig{} // unlimited depth
		m, err := sgx.New(cfg)
		if err != nil {
			return nil, err
		}
		k := kos.New(m)
		host := sdk.NewHost(k)

		imgs := make([]*sdk.Image, depth) // imgs[0] innermost
		for i := range imgs {
			imgs[i] = sdk.NewImage(fmt.Sprintf("d%d", i), isa.VAddr(0x1000_0000*uint64(i+1)), sdk.DefaultLayout())
		}
		// Innermost reads the outermost heap.
		outermostHeap := imgs[depth-1].HeapBase()
		imgs[0].RegisterECall("probe", func(env *sdk.Env, args []byte) ([]byte, error) {
			return env.Read(outermostHeap, 8)
		})
		// Each level calls down one level (outermost entered first).
		for i := depth - 1; i >= 1; i-- {
			i := i
			imgs[i].RegisterECall("chain", func(env *sdk.Env, args []byte) ([]byte, error) {
				inner := env.E.Inners()[0]
				if i == 1 {
					return env.NECall(inner, "probe", args)
				}
				return env.NECall(inner, "chain", args)
			})
		}
		encls := make([]*sdk.Enclave, depth)
		authors := measure.MustNewAuthor()
		for i := range imgs {
			var outers, inners []measure.Digest
			if i+1 < depth {
				outers = append(outers, imgs[i+1].Measure())
			}
			if i > 0 {
				inners = append(inners, imgs[i-1].Measure())
			}
			e, err := host.Load(imgs[i].Sign(authors, outers, inners))
			if err != nil {
				return nil, err
			}
			encls[i] = e
		}
		for i := 0; i+1 < depth; i++ {
			if err := host.Associate(encls[i], encls[i+1]); err != nil {
				return nil, err
			}
		}
		entry := "chain"
		if depth == 1 {
			entry = "probe"
		}
		// Warm up structures, then measure.
		if _, err := encls[depth-1].ECall(entry, nil); err != nil {
			return nil, err
		}
		steps0, cycles0 := m.Rec.Get(trace.EvValidateStep), m.Rec.Cycles()
		const iters = 300
		for i := 0; i < iters; i++ {
			if _, err := encls[depth-1].ECall(entry, nil); err != nil {
				return nil, err
			}
		}
		rows = append(rows, AblationDepthRow{
			Depth:         depth,
			ValidateSteps: (m.Rec.Get(trace.EvValidateStep) - steps0) / iters,
			ChainCycles:   (m.Rec.Cycles() - cycles0) / iters,
		})
	}
	return rows, nil
}

// RenderAblationDepth formats the rows.
func RenderAblationDepth(rows []AblationDepthRow) *Table {
	t := &Table{
		Title:   "Ablation — multi-level nesting depth vs validation cost",
		Headers: []string{"Depth", "validate steps/round-trip", "chain round-trip (cycles)"},
		Notes:   []string{"VIII: deeper nesting only lengthens TLB-miss validation; no extra hardware"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Depth), fmt.Sprint(r.ValidateSteps), fmt.Sprint(r.ChainCycles))
	}
	return t
}

// TableVRender renders the dataset table (an input of the evaluation).
func TableVRender() *Table {
	t := &Table{
		Title:   "Table V — datasets used for evaluating LibSVM (synthetic surrogates, same shapes)",
		Headers: []string{"name", "class", "training size", "testing size", "feature"},
		Notes:   []string{"'-' means only training data exists; a fraction of the training set is reused for testing"},
	}
	for _, s := range datasets.TableV() {
		test := "-"
		if s.Test > 0 {
			test = fmt.Sprint(s.Test)
		}
		t.AddRow(s.Name, fmt.Sprint(s.Classes), fmt.Sprint(s.Train), test, fmt.Sprint(s.Features))
	}
	return t
}
