//nescheck:allow determinism Figure 9 train/predict timings read host wall time by design; simulated costs are tracked separately via trace.Recorder cycles

package bench

import (
	"fmt"
	"math/rand"
	"time"

	"nestedenclave/internal/datasets"
)

// This file is the Figure 9 harness over the machine-learning case study
// (mlservice.go): training and prediction time of both builds on the
// Table V dataset shapes.

// Figure9Row is one dataset group of Figure 9.
type Figure9Row struct {
	Dataset                  string
	TrainNorm, PredNorm      float64
	MonoTrainMS, NestTrainMS float64
	MonoPredMS, NestPredMS   float64
}

// Figure9 runs training and prediction on the Table V dataset shapes,
// scaled by scale (1.0 = the paper's full sizes), for both builds.
func Figure9(scale float64) ([]Figure9Row, error) {
	if scale <= 0 {
		scale = 0.02
	}
	var rows []Figure9Row
	for _, spec := range datasets.TableV() {
		d := datasets.Generate(spec.Scale(scale), rand.New(rand.NewSource(42)))
		row := Figure9Row{Dataset: spec.Name}
		// Build both variants first, then alternate their timed passes
		// (mono, nested, mono, nested) and keep each variant's fastest, so
		// a burst of host load lands on both variants rather than on one.
		// Each rig runs exactly two train-then-predict passes: the gated
		// mlservice cycles count them.
		type variant struct {
			ms                *MLService
			trainReq, predReq []byte
			trainMS, predMS   float64
		}
		var vs [2]variant
		for i, nested := range []bool{false, true} {
			r, err := NewRig(SmallMachine())
			if err != nil {
				return nil, err
			}
			ms, err := BuildMLService(r, nested)
			if err != nil {
				return nil, err
			}
			vs[i] = variant{
				ms:       ms,
				trainReq: ms.EncryptRequest(d.TrainX, d.TrainY, []int{0}),
				predReq:  ms.EncryptRequest(d.TestX, d.TestY, []int{0}),
				trainMS:  -1,
				predMS:   -1,
			}
		}
		for pass := 0; pass < 2; pass++ {
			for i := range vs {
				v := &vs[i]
				start := time.Now()
				if _, err := v.ms.Train(v.trainReq); err != nil {
					return nil, fmt.Errorf("%s train (%s): %w", spec.Name, variantName(v.ms.Nested), err)
				}
				if ms1 := float64(time.Since(start).Microseconds()) / 1000; v.trainMS < 0 || ms1 < v.trainMS {
					v.trainMS = ms1
				}
				start = time.Now()
				if _, err := v.ms.Predict(v.predReq); err != nil {
					return nil, fmt.Errorf("%s predict (%s): %w", spec.Name, variantName(v.ms.Nested), err)
				}
				if ms1 := float64(time.Since(start).Microseconds()) / 1000; v.predMS < 0 || ms1 < v.predMS {
					v.predMS = ms1
				}
			}
		}
		row.MonoTrainMS, row.MonoPredMS = vs[0].trainMS, vs[0].predMS
		row.NestTrainMS, row.NestPredMS = vs[1].trainMS, vs[1].predMS
		row.TrainNorm = row.NestTrainMS / row.MonoTrainMS
		row.PredNorm = row.NestPredMS / row.MonoPredMS
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure9 formats the rows.
func RenderFigure9(rows []Figure9Row, scale float64) *Table {
	t := &Table{
		Title:   "Figure 9 — LibSVM execution time normalized to monolithic",
		Headers: []string{"Dataset", "Train norm", "Predict norm", "Mono train (ms)", "Nested train (ms)"},
		Notes: []string{
			fmt.Sprintf("dataset sizes scaled by %.3f of Table V", scale),
			"paper: nested ~= monolithic across all datasets (few extra transitions vs long compute)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, f3(r.TrainNorm), f3(r.PredNorm), f2(r.MonoTrainMS), f2(r.NestTrainMS))
	}
	return t
}
