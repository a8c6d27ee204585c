// Package bench is the experiment harness: one entry point per table and
// figure of the paper's evaluation (§V–§VI), each returning the same
// rows/series the paper reports. The cmd/repro binary prints them; the
// root-level bench_test.go exposes each as a testing.B benchmark.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	TableII   — enclave transition latencies
//	TableIII  — lines of code modified to port the case studies
//	TableIV   — MLS data classification of the case studies
//	TableV    — dataset shapes
//	TableVI   — SQLite/YCSB normalized throughput
//	TableVII  — security analysis (executed attacks)
//	Figure7   — SSL echo-server throughput vs chunk size
//	Figure9   — LibSVM train/predict normalized execution time
//	Figure10  — enclave load time and memory footprint vs sharing degree
//	Figure11  — intra-enclave (MEE) vs AES-GCM channel throughput
//	Ablation* — design-choice ablations (DESIGN.md)
package bench

import (
	"fmt"
	"strings"
	"time"

	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// Rig is a booted simulator used by experiments.
type Rig struct {
	M    *sgx.Machine
	K    *kos.Kernel
	Host *sdk.Host
}

// NewRig boots a machine with the given config, whose Nesting selects the
// nesting model (zero value: the default i7-7700-like, two-level machine).
func NewRig(cfg sgx.Config) (*Rig, error) {
	if cfg.Cores == 0 {
		cfg = sgx.DefaultConfig()
	}
	m, err := sgx.New(cfg)
	if err != nil {
		return nil, err
	}
	k := kos.New(m)
	registerRecorder(m.Rec)
	return &Rig{M: m, K: k, Host: sdk.NewHost(k)}, nil
}

// SignPair signs an inner/outer image pair with mutual expected
// measurements and a shared author.
func SignPair(inner, outer *sdk.Image) (*sdk.SignedImage, *sdk.SignedImage) {
	author := measure.MustNewAuthor()
	si := inner.Sign(author, []measure.Digest{outer.Measure()}, nil)
	so := outer.Sign(author, nil, []measure.Digest{inner.Measure()})
	return si, so
}

// LoadPair loads and associates an inner/outer pair.
func (r *Rig) LoadPair(innerImg, outerImg *sdk.Image) (inner, outer *sdk.Enclave, err error) {
	outer, inners, err := r.LoadShared(outerImg, innerImg)
	if err != nil {
		return nil, nil, err
	}
	return inners[0], outer, nil
}

// LoadShared deploys one outer enclave shared by several inners: it signs
// all of them with one author, the outer expecting every inner and each
// inner expecting the outer, then loads the outer, then loads and
// associates each inner in order.
func (r *Rig) LoadShared(outerImg *sdk.Image, innerImgs ...*sdk.Image) (outer *sdk.Enclave, inners []*sdk.Enclave, err error) {
	author := measure.MustNewAuthor()
	innerDigests := make([]measure.Digest, len(innerImgs))
	for i, img := range innerImgs {
		innerDigests[i] = img.Measure()
	}
	if outer, err = r.Host.Load(outerImg.Sign(author, nil, innerDigests)); err != nil {
		return nil, nil, err
	}
	outerDigest := []measure.Digest{outerImg.Measure()}
	for _, img := range innerImgs {
		inner, err := r.Host.Load(img.Sign(author, outerDigest, nil))
		if err != nil {
			return nil, nil, err
		}
		inners = append(inners, inner)
	}
	for _, inner := range inners {
		if err := r.Host.Associate(inner, outer); err != nil {
			return nil, nil, err
		}
	}
	return outer, inners, nil
}

// LoadSolo loads a standalone enclave.
func (r *Rig) LoadSolo(img *sdk.Image) (*sdk.Enclave, error) {
	return r.Host.Load(img.Sign(measure.MustNewAuthor(), nil, nil))
}

// SmallMachine sizes a machine for experiments that need little EPC.
func SmallMachine() sgx.Config { return sgx.SmallConfig() }

// CPUFreqGHz converts the simulated cycle model into times: the paper's
// testbed i7-7700 runs at 3.6–4.2 GHz; 4.0 is used throughout.
const CPUFreqGHz = 4.0

// CyclesToUS converts model cycles to microseconds.
func CyclesToUS(cycles int64) float64 { return float64(cycles) / (CPUFreqGHz * 1e3) }

// Table renders rows of labelled values as an aligned text table, the
// format cmd/repro prints.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// streamQPS is the throughput of a stream whose operations took lat.
func streamQPS(lat []time.Duration) float64 {
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return float64(len(lat)) / sum.Seconds()
}

// variantName names a build in error messages.
func variantName(nested bool) string {
	if nested {
		return "nested"
	}
	return "monolithic"
}

// byteSize formats a byte count in the largest unit that divides it.
func byteSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// f2, f3 format floats compactly.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
