//nescheck:allow determinism enclave load-time measurement reads host wall time by design; simulated costs are tracked separately via trace.Recorder cycles

package bench

import (
	"fmt"
	"runtime"
	"time"

	"nestedenclave/internal/cache"
	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// This file reproduces Figure 10 (§VI-C, library sharing): the time to load
// a fleet of enclaves and their total memory footprint, comparing
//
//   - baseline "N SSL + N App": every application gets its own library
//     enclave (separate enclaves, no sharing);
//   - baseline "N (SSL+App)": the current SGX practice — one enclave
//     containing both library and application code;
//   - nested: N App inner enclaves sharing M SSL outer enclaves, for
//     decreasing M (more sharing).
//
// Loading is real work in the simulator: every measured page is generated,
// EADD-copied through the cache/MEE hierarchy, and EEXTEND-hashed, so load
// time scales with bytes exactly as "SGX verifies the entire binary when
// loading" implies.

// Figure10Config sizes the experiment.
type Figure10Config struct {
	// Apps is the number of application (inner) enclaves — the paper's 500.
	Apps int
	// SSLOuters lists the outer-enclave counts for the nested runs — the
	// paper sweeps {500, 250, 100, 50, 10, 1}.
	SSLOuters []int
	// SSLPages / AppPages size the two images — the paper's library is
	// ~4 MiB (1024 pages) and the application ~1 MiB (256 pages).
	SSLPages int
	AppPages int
}

// DefaultFigure10Config scales the paper's 500-enclave sweep down by 10×
// so it fits the default PRM; cmd/repro --full runs the paper's sizes.
func DefaultFigure10Config() Figure10Config {
	return Figure10Config{
		Apps:      50,
		SSLOuters: []int{50, 25, 10, 5, 1},
		SSLPages:  1024,
		AppPages:  256,
	}
}

// Figure10Row is one bar group.
type Figure10Row struct {
	Config      string
	LoadSeconds float64
	FootprintMB float64
	Enclaves    int
}

// figure10Machine sizes PRM to hold the largest configuration.
func figure10Machine(cfg Figure10Config) sgx.Config {
	// Worst case: Apps*(AppPages+overhead) + Apps*(SSLPages+overhead).
	perApp := cfg.AppPages + 8
	perSSL := cfg.SSLPages + 8
	pages := uint64(cfg.Apps*(perApp+perSSL) + 4096)
	prm := (pages*isa.PageSize + (1<<22 - 1)) &^ (1<<22 - 1)
	return sgx.Config{
		Cores: 4,
		Phys: phys.Layout{
			DRAMSize: prm + (64 << 20),
			PRMBase:  32 << 20,
			PRMSize:  prm,
		},
		LLC:     cache.DefaultConfig(),
		Nesting: sgx.TwoLevel(),
	}
}

func sslImage(cfg Figure10Config, base isa.VAddr) *sdk.Image {
	l := sdk.Layout{CodePages: cfg.SSLPages * 3 / 4, DataPages: cfg.SSLPages / 4, HeapPages: 2, NumTCS: 2}
	img := sdk.NewImage("ssl", base, l)
	img.RegisterNOCall("ssl_write", func(env *sdk.Env, args []byte) ([]byte, error) { return args, nil })
	return img
}

func appImage(cfg Figure10Config, base isa.VAddr) *sdk.Image {
	l := sdk.Layout{CodePages: cfg.AppPages * 3 / 4, DataPages: cfg.AppPages / 4, HeapPages: 2, NumTCS: 2}
	img := sdk.NewImage("app", base, l)
	img.RegisterECall("serve", func(env *sdk.Env, args []byte) ([]byte, error) { return args, nil })
	return img
}

// vaSlots spreads ELRANGEs across the virtual address space with a fixed
// per-slot stride large enough for any image in the experiment, so no two
// slots ever overlap regardless of image size.
func vaSlots(cfg Figure10Config) func(slot int) isa.VAddr {
	stride := uint64(cfg.SSLPages+cfg.AppPages+64) * isa.PageSize
	return func(slot int) isa.VAddr {
		return isa.VAddr(0x10_0000_0000 + uint64(slot)*stride)
	}
}

// Figure10 runs the sweep.
func Figure10(cfg Figure10Config) ([]Figure10Row, error) {
	if cfg.Apps == 0 {
		cfg = DefaultFigure10Config()
	}
	var rows []Figure10Row

	footprint := func(m *sgx.Machine) float64 {
		used := epc.NumPagesIn(m.DRAM.Layout()) - m.FreeEPCPages()
		return float64(used) * isa.PageSize / (1 << 20)
	}
	slot := vaSlots(cfg)
	// Each configuration's machine holds a DRAM frame for every page its
	// enclaves touched, plus the full-size LLC's line array; reclaim between
	// configurations so Go GC pressure does not bias later rows.
	reclaim := func() { runtime.GC() }

	// Baseline 1: N SSL enclaves + N App enclaves, all separate.
	{
		reclaim()
		r, err := NewRig(figure10Machine(cfg))
		if err != nil {
			return nil, err
		}
		author := measure.MustNewAuthor()
		start := time.Now()
		for i := 0; i < cfg.Apps; i++ {
			if _, err := r.Host.Load(sslImage(cfg, slot(i*2)).Sign(author, nil, nil)); err != nil {
				return nil, fmt.Errorf("baseline separate ssl %d: %w", i, err)
			}
			if _, err := r.Host.Load(appImage(cfg, slot(i*2+1)).Sign(author, nil, nil)); err != nil {
				return nil, fmt.Errorf("baseline separate app %d: %w", i, err)
			}
		}
		rows = append(rows, Figure10Row{
			Config:      fmt.Sprintf("SGX %d SSL + %d App", cfg.Apps, cfg.Apps),
			LoadSeconds: time.Since(start).Seconds(),
			FootprintMB: footprint(r.M),
			Enclaves:    2 * cfg.Apps,
		})
	}

	// Baseline 2: N combined (SSL+App) enclaves — the current practice.
	{
		reclaim()
		r, err := NewRig(figure10Machine(cfg))
		if err != nil {
			return nil, err
		}
		author := measure.MustNewAuthor()
		start := time.Now()
		for i := 0; i < cfg.Apps; i++ {
			pages := cfg.SSLPages + cfg.AppPages
			l := sdk.Layout{CodePages: pages * 3 / 4, DataPages: pages / 4, HeapPages: 2, NumTCS: 2}
			img := sdk.NewImage("ssl+app", slot(i), l)
			img.RegisterECall("serve", func(env *sdk.Env, args []byte) ([]byte, error) { return args, nil })
			if _, err := r.Host.Load(img.Sign(author, nil, nil)); err != nil {
				return nil, fmt.Errorf("baseline combined %d: %w", i, err)
			}
		}
		rows = append(rows, Figure10Row{
			Config:      fmt.Sprintf("SGX %d (SSL+App)", cfg.Apps),
			LoadSeconds: time.Since(start).Seconds(),
			FootprintMB: footprint(r.M),
			Enclaves:    cfg.Apps,
		})
	}

	// Nested: N App inners sharing M SSL outers. "After we launch all the
	// enclaves, we associate them at once."
	for _, outers := range cfg.SSLOuters {
		if outers > cfg.Apps {
			continue
		}
		reclaim()
		r, err := NewRig(figure10Machine(cfg))
		if err != nil {
			return nil, err
		}
		author := measure.MustNewAuthor()

		sslImgs := make([]*sdk.Image, outers)
		appImgs := make([]*sdk.Image, cfg.Apps)
		for i := range sslImgs {
			sslImgs[i] = sslImage(cfg, slot(i))
		}
		for i := range appImgs {
			appImgs[i] = appImage(cfg, slot(outers+i))
		}
		// All app images share one measurement; all ssl images share one.
		appDigest := appImgs[0].Measure()
		sslDigest := sslImgs[0].Measure()

		start := time.Now()
		sslEncls := make([]*sdk.Enclave, outers)
		for i, img := range sslImgs {
			e, err := r.Host.Load(img.Sign(author, nil, []measure.Digest{appDigest}))
			if err != nil {
				return nil, fmt.Errorf("nested ssl %d/%d: %w", i, outers, err)
			}
			sslEncls[i] = e
		}
		appEncls := make([]*sdk.Enclave, cfg.Apps)
		for i, img := range appImgs {
			e, err := r.Host.Load(img.Sign(author, []measure.Digest{sslDigest}, nil))
			if err != nil {
				return nil, fmt.Errorf("nested app %d: %w", i, err)
			}
			appEncls[i] = e
		}
		for i, app := range appEncls {
			if err := r.Host.Associate(app, sslEncls[i%outers]); err != nil {
				return nil, fmt.Errorf("associate %d: %w", i, err)
			}
		}
		rows = append(rows, Figure10Row{
			Config:      fmt.Sprintf("Nested %d SSL + %d App", outers, cfg.Apps),
			LoadSeconds: time.Since(start).Seconds(),
			FootprintMB: footprint(r.M),
			Enclaves:    outers + cfg.Apps,
		})
	}
	return rows, nil
}

// RenderFigure10 formats the rows.
func RenderFigure10(rows []Figure10Row, cfg Figure10Config) *Table {
	t := &Table{
		Title:   "Figure 10 — time to load enclaves running the OpenSSL server, and total memory",
		Headers: []string{"Configuration", "Load time (s)", "Footprint (MB)", "Enclaves"},
		Notes: []string{
			fmt.Sprintf("SSL image %d pages (~%d MB), App image %d pages (~%d MB); scale via cmd/repro --full for the paper's 500",
				cfg.SSLPages, cfg.SSLPages>>8, cfg.AppPages, cfg.AppPages>>8),
			"paper: nested sharing shrinks both load time and footprint; more sharing, more benefit",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Config, f2(r.LoadSeconds), f2(r.FootprintMB), fmt.Sprint(r.Enclaves))
	}
	return t
}
