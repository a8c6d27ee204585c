//nescheck:allow determinism Table VI QPS measurement reads host wall time by design; simulated costs are tracked separately via trace.Recorder cycles

package bench

import (
	"fmt"
	"math/rand"
	"time"

	"nestedenclave/internal/ycsb"
)

// This file is the Table VI harness over the SQL case study (sqlservice.go):
// YCSB throughput of both builds, alternating query by query.

// TableVIRow is one workload row of Table VI.
type TableVIRow struct {
	Workload   string
	MonoQPS    float64
	NestQPS    float64
	Normalized float64
	// OverheadUS is the absolute per-query cost the nested build adds
	// (transitions + parse/encrypt in the inner enclave).
	OverheadUS float64
	// SQLiteEquivNorm projects the normalized throughput onto a real
	// SQLite's per-query cost (~300 us on the paper's testbed): the same
	// absolute overhead against realistic engine work. This is the number
	// comparable to the paper's 0.98-0.99, since this repository's SQL
	// engine is over an order of magnitude faster than SQLite.
	SQLiteEquivNorm float64
}

// sqliteQueryUS is the reference per-query cost of real SQLite used for the
// paper-equivalent normalization.
const sqliteQueryUS = 300.0

// TableVI runs the four YCSB mixes with cfg (zero value: 1000 records,
// 10 000 operations — the paper's query count). seed fixes the generated
// query streams: the generator takes an injected RNG, and the bench layer
// is where the seed becomes one.
func TableVI(cfg ycsb.Config, seed int64) ([]TableVIRow, error) {
	if cfg.Operations == 0 {
		cfg = ycsb.DefaultConfig()
	}
	var rows []TableVIRow
	for _, mix := range ycsb.TableVIMixes() {
		w := ycsb.Generate(mix, cfg, rand.New(rand.NewSource(seed)))
		row := TableVIRow{Workload: mix.Name}
		best := [2][]time.Duration{make([]time.Duration, len(w.Queries)), make([]time.Duration, len(w.Queries))}
		for pass := range tableVIRuns {
			if err := tableVIPass(w, &best, pass == 0); err != nil {
				return nil, err
			}
		}
		row.MonoQPS, row.NestQPS = streamQPS(best[0]), streamQPS(best[1])
		row.Normalized = row.NestQPS / row.MonoQPS
		row.OverheadUS = 1e6/row.NestQPS - 1e6/row.MonoQPS
		row.SQLiteEquivNorm = sqliteQueryUS / (sqliteQueryUS + row.OverheadUS)
		rows = append(rows, row)
	}
	return rows, nil
}

// tableVIRuns is how many passes TableVI makes over each mix.
const tableVIRuns = 3

// tableVIPass loads a fresh service of each variant (0 monolithic, 1 nested)
// and runs w's stream through both, alternating query by query; best[v][i]
// keeps variant v's fastest time for query i. A query takes microseconds and
// the shape test's 400-query stream under a scheduler time slice: a slow
// stretch of the host falls on both variants alike, and a stall counts only
// if it hits the same query in every pass.
func tableVIPass(w *ycsb.Workload, best *[2][]time.Duration, first bool) error {
	var svc [2]*SQLService
	for v := range svc {
		r, err := NewRig(SmallMachine())
		if err != nil {
			return err
		}
		if svc[v], err = BuildSQLService(r, v == 1, false); err != nil {
			return err
		}
		for _, q := range w.Setup {
			if _, err := svc[v].Query(q); err != nil {
				return fmt.Errorf("%s setup (%s): %w", w.Mix.Name, variantName(v == 1), err)
			}
		}
	}
	for i, q := range w.Queries {
		for v, s := range svc {
			start := time.Now()
			if _, err := s.Query(q); err != nil {
				return fmt.Errorf("%s (%s): %w", w.Mix.Name, variantName(v == 1), err)
			}
			if d := time.Since(start); first || d < best[v][i] {
				best[v][i] = d
			}
		}
	}
	return nil
}

// RenderTableVI formats the rows.
func RenderTableVI(rows []TableVIRow) *Table {
	t := &Table{
		Title:   "Table VI — SQLite throughput with YCSB (uniform random requests), normalized to monolithic",
		Headers: []string{"Workload", "Mono q/s", "Nested q/s", "Normalized", "Overhead us/q", "SQLite-equiv norm"},
		Notes: []string{
			"paper: 0.99 / 0.99 / 0.98 / 0.98 — under 2% overhead from per-query encryption + transitions",
			"this repo's SQL engine runs queries in single-digit microseconds, so the same absolute overhead",
			fmt.Sprintf("shows as a larger ratio; the last column projects it onto a %v-us/query SQLite", sqliteQueryUS),
		},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, f2(r.MonoQPS), f2(r.NestQPS), f3(r.Normalized), f2(r.OverheadUS), f3(r.SQLiteEquivNorm))
	}
	return t
}
