//nescheck:allow determinism throughput calibration measures host wall time by design; simulated costs are tracked separately via trace.Recorder cycles

package bench

import (
	"bytes"
	"fmt"
	"time"

	"nestedenclave/internal/ssl"
	"nestedenclave/internal/trace"
)

// This file is the Figure 7 harness over the echo-server case study
// (echoserver.go): throughput of both builds across chunk sizes, with the
// boundary crossings per message the paper overlays.

// Figure7Row is one bar+line group of Figure 7.
type Figure7Row struct {
	ChunkBytes     int
	MonoMsgsPerSec float64
	NestMsgsPerSec float64
	// Normalized is nested/monolithic throughput (the paper's bars).
	Normalized float64
	// Calls are total boundary crossings per message (ecall/ocall plus
	// n_ecall/n_ocall), the paper's overlay lines.
	MonoCallsPerMsg float64
	NestCallsPerMsg float64
}

// Figure7Chunks are the paper's message sizes.
func Figure7Chunks() []int { return []int{128, 512, 1024, 4096, 16384} }

// Figure7 measures echo-server throughput for both builds across chunk
// sizes, msgs messages per timed pass.
func Figure7(chunks []int, msgs int) ([]Figure7Row, error) {
	if msgs <= 0 {
		msgs = 2000
	}
	var rows []Figure7Row
	for _, chunk := range chunks {
		payload := bytes.Repeat([]byte{0xA5}, chunk)
		// Index 0 is the monolithic build, 1 the nested one.
		var (
			servers [2]*EchoServer
			clients [2]*ssl.Client
			recs    [2]*trace.Recorder
			before  [2]trace.CounterSet
			calls   [2]float64
			// best[i][j] is build i's fastest time for message j.
			best = [2][]time.Duration{make([]time.Duration, msgs), make([]time.Duration, msgs)}
		)
		for i, nested := range []bool{false, true} {
			r, err := NewRig(SmallMachine())
			if err != nil {
				return nil, err
			}
			if servers[i], err = BuildEchoServer(r, nested, false); err != nil {
				return nil, err
			}
			if clients[i], err = servers[i].Connect(ssl.Config{MinVersion: ssl.VersionTLS12Like}); err != nil {
				return nil, err
			}
			// Warm-up: fault in pages, grow heaps, initialize crypto state,
			// so the timed phases measure steady-state throughput.
			for range msgs/10 + 16 {
				if err := servers[i].Echo(clients[i], payload); err != nil {
					return nil, err
				}
			}
			// Count boundary crossings with an allocation-free counter
			// delta, so the measurement loop itself does not disturb the
			// numbers.
			recs[i] = r.M.Rec
			recs[i].SnapshotInto(&before[i])
		}
		// A message takes microseconds, and a pass a few milliseconds, less
		// than a scheduler time slice, so one stall from a co-scheduled
		// process could skew a whole pass several-fold. The builds alternate
		// message by message, so a slow stretch of the host falls on both
		// alike, and each message counts at its fastest of figure7Passes
		// passes: a stall counts only if it hits the same message in every
		// pass.
		for pass := range figure7Passes {
			for j := range msgs {
				for i := range servers {
					start := time.Now()
					if err := servers[i].Echo(clients[i], payload); err != nil {
						return nil, fmt.Errorf("%s chunk %d: %w", variantName(i == 1), chunk, err)
					}
					if d := time.Since(start); pass == 0 || d < best[i][j] {
						best[i][j] = d
					}
				}
			}
		}
		mono, nest := streamQPS(best[0]), streamQPS(best[1])
		for i, rec := range recs {
			var delta trace.CounterSet
			rec.DiffInto(&before[i], &delta)
			calls[i] = float64(delta.Total(trace.EvECall, trace.EvOCall,
				trace.EvNECall, trace.EvNOCall)) / float64(figure7Passes*msgs)
		}
		rows = append(rows, Figure7Row{
			ChunkBytes:      chunk,
			MonoMsgsPerSec:  mono,
			NestMsgsPerSec:  nest,
			Normalized:      nest / mono,
			MonoCallsPerMsg: calls[0],
			NestCallsPerMsg: calls[1],
		})
	}
	return rows, nil
}

// figure7Passes is how many timed passes Figure7 runs of each build.
const figure7Passes = 3

// RenderFigure7 formats the rows.
func RenderFigure7(rows []Figure7Row) *Table {
	t := &Table{
		Title:   "Figure 7 — echo server throughput (normalized to monolithic) and calls per message",
		Headers: []string{"Chunk", "Mono msg/s", "Nested msg/s", "Normalized", "Mono calls/msg", "Nested calls/msg"},
		Notes:   []string{"paper: normalized 0.94-0.98, degradation larger at small chunks; nested issues extra n_ecall/n_ocall"},
	}
	for _, r := range rows {
		t.AddRow(byteSize(r.ChunkBytes), f2(r.MonoMsgsPerSec), f2(r.NestMsgsPerSec),
			f3(r.Normalized), f2(r.MonoCallsPerMsg), f2(r.NestCallsPerMsg))
	}
	return t
}
