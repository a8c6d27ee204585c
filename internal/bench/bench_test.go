package bench

import (
	"strings"
	"testing"

	"nestedenclave/internal/datasets"
	"nestedenclave/internal/ssl"
	"nestedenclave/internal/ycsb"
)

// These tests run every experiment at reduced scale and assert the *shape*
// the paper reports — who wins, and roughly how — not absolute numbers.

func TestTableIIShape(t *testing.T) {
	res, err := TableII(3000)
	if err != nil {
		t.Fatal(err)
	}
	// The model HW numbers match the calibration targets.
	if res.HWEcallUS < 3.3 || res.HWEcallUS > 3.6 {
		t.Errorf("HW ecall %.2f us, want ~3.45", res.HWEcallUS)
	}
	if res.HWOcallUS < 3.0 || res.HWOcallUS > 3.3 {
		t.Errorf("HW ocall %.2f us, want ~3.13", res.HWOcallUS)
	}
	// Emulated transitions are all sub-HW-latency and nonzero.
	for name, v := range map[string]float64{
		"emu sgx ecall":  res.EmuSGXEcallUS,
		"emu sgx ocall":  res.EmuSGXOcallUS,
		"emu nest ecall": res.EmuNestEcallUS,
		"emu nest ocall": res.EmuNestOcallUS,
	} {
		if v <= 0 {
			t.Errorf("%s = %.3f us", name, v)
		}
	}
	// The paper's key relation — nested transitions cheaper than the ecall
	// pair — holds deterministically in the cycle model.
	if res.HWNestEcallUS >= res.HWEcallUS {
		t.Errorf("model n_ecall (%.2f us) not cheaper than ecall (%.2f us)", res.HWNestEcallUS, res.HWEcallUS)
	}
	// The wall-clock emulation rows stay within the same order of magnitude
	// of each other (our emulated transitions are light; noise dominates).
	if res.EmuNestEcallUS > res.EmuSGXEcallUS*4 {
		t.Errorf("n_ecall (%.2f us) wildly slower than ecall (%.2f us)", res.EmuNestEcallUS, res.EmuSGXEcallUS)
	}
	if res.Render().String() == "" {
		t.Error("empty render")
	}
}

func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7([]int{128, 4096}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Nested throughput within a modest factor of monolithic, never
		// dramatically slower or faster (single-vCPU wall-clock noise
		// allowed for; cmd/repro reports the precise ratios).
		if r.Normalized < 0.4 || r.Normalized > 1.5 {
			t.Errorf("chunk %d: normalized %.3f out of plausible band", r.ChunkBytes, r.Normalized)
		}
		// Nested issues more boundary crossings per message.
		if r.NestCallsPerMsg <= r.MonoCallsPerMsg {
			t.Errorf("chunk %d: nested calls/msg %.1f <= mono %.1f",
				r.ChunkBytes, r.NestCallsPerMsg, r.MonoCallsPerMsg)
		}
	}
	if RenderFigure7(rows).String() == "" {
		t.Error("empty render")
	}
}

func TestFigure9Shape(t *testing.T) {
	const scale = 0.01
	rows, err := Figure9(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	checked := map[string]bool{}
	for _, r := range rows {
		if r.TrainNorm <= 0 || r.PredNorm <= 0 {
			t.Errorf("%s: non-positive normalized (%.2f / %.2f)", r.Dataset, r.TrainNorm, r.PredNorm)
		}
		// The paper's claim is asymptotic — compute dwarfs transitions — so
		// only band-check datasets whose training does enough work for the
		// ratio to be meaningful. The work is counted, not timed, so every
		// host checks the same datasets.
		spec, err := datasets.ByName(r.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		if trainKernelEvals(spec.Scale(scale)) < 1_000_000 {
			continue
		}
		checked[r.Dataset] = true
		if r.TrainNorm < 0.4 || r.TrainNorm > 2.0 {
			t.Errorf("%s: train normalized %.2f at %.1f ms baseline", r.Dataset, r.TrainNorm, r.MonoTrainMS)
		}
	}
	if !checked["cod-rna"] || !checked["protein"] {
		t.Errorf("band-checked %v, want cod-rna and protein among them", checked)
	}
	if RenderFigure9(rows, scale).String() == "" {
		t.Error("empty render")
	}
}

// trainKernelEvals counts the kernel evaluations of one SMO pass over a
// dataset's training set, n² × features: the training work that the nested
// build's transitions and request copies are measured against. At Figure 9's
// 0.01 scale it is 11.2 M for protein and 2.8 M for cod-rna, and below
// 0.9 M for the other three; colon-cancer's 4 samples make 32 k.
func trainKernelEvals(s datasets.Spec) int {
	return s.Train * s.Train * s.Features
}

func TestTableVIShape(t *testing.T) {
	rows, err := TableVI(ycsb.Config{Records: 100, Operations: 400, FieldLen: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Normalized < 0.2 || r.Normalized > 1.3 {
			t.Errorf("%s: normalized %.3f", r.Workload, r.Normalized)
		}
		// Projected onto a real SQLite's per-query cost, the overhead is in
		// the paper's few-percent regime. The bound tolerates race-detector
		// and co-tenant load: OverheadUS is host wall time, and under
		// contention the ~30 us/q signal measured here can inflate well
		// past the paper's regime without any code being slower.
		if r.SQLiteEquivNorm < 0.8 {
			t.Errorf("%s: SQLite-equivalent normalized %.3f (overhead %.1f us/q)",
				r.Workload, r.SQLiteEquivNorm, r.OverheadUS)
		}
	}
	if RenderTableVI(rows).String() == "" {
		t.Error("empty render")
	}
}

func TestFigure10Shape(t *testing.T) {
	cfg := Figure10Config{Apps: 6, SSLOuters: []int{6, 2, 1}, SSLPages: 96, AppPages: 32}
	rows, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows: %+v", len(rows), rows)
	}
	baselineSep := rows[0]
	var nestedShared Figure10Row // the 1-outer configuration
	for _, r := range rows {
		if strings.HasPrefix(r.Config, "Nested 1 ") {
			nestedShared = r
		}
	}
	// Maximal sharing loads less and uses less memory than either baseline.
	if nestedShared.FootprintMB >= baselineSep.FootprintMB {
		t.Errorf("nested shared footprint %.1f MB >= baseline %.1f MB",
			nestedShared.FootprintMB, baselineSep.FootprintMB)
	}
	if nestedShared.LoadSeconds >= baselineSep.LoadSeconds {
		t.Errorf("nested shared load %.2fs >= baseline %.2fs",
			nestedShared.LoadSeconds, baselineSep.LoadSeconds)
	}
	// Footprint decreases monotonically with sharing among nested rows.
	var prev float64 = -1
	for _, r := range rows[2:] {
		if prev >= 0 && r.FootprintMB > prev {
			t.Errorf("footprint not monotone with sharing: %.1f after %.1f", r.FootprintMB, prev)
		}
		prev = r.FootprintMB
	}
	if RenderFigure10(rows, cfg).String() == "" {
		t.Error("empty render")
	}
}

func TestFigure11Shape(t *testing.T) {
	rows, err := Figure11([]int{2}, []int{64, 16384}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	small, large := rows[0], rows[1]
	// The protected-memory channel beats software GCM, most for small
	// chunks, converging as chunk size grows.
	if small.Speedup <= 2 {
		t.Errorf("64B speedup %.1fx, want >2x", small.Speedup)
	}
	if large.Speedup >= small.Speedup {
		t.Errorf("speedup did not shrink with chunk size: %.1fx -> %.1fx",
			small.Speedup, large.Speedup)
	}
	if RenderFigure11(rows).String() == "" {
		t.Error("empty render")
	}
}

func TestFigure11FootprintEffect(t *testing.T) {
	// Beyond the 8 MiB LLC the MEE kicks in and the protected channel's
	// absolute throughput drops.
	rows, err := Figure11([]int{2, 16}, []int{4096}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].MEEGBps >= rows[0].MEEGBps {
		t.Errorf("MEE throughput did not drop past the LLC: %.1f -> %.1f GB/s",
			rows[0].MEEGBps, rows[1].MEEGBps)
	}
}

func TestTableIIICounts(t *testing.T) {
	rows := TableIII()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.PortedLOC == 0 {
			t.Errorf("%s: zero ported LOC (markers lost?)", r.Name)
		}
		if r.PortedLOC > 60 {
			t.Errorf("%s: %d ported LOC — porting should be small", r.Name, r.PortedLOC)
		}
		if r.InterfaceLOC == 0 {
			t.Errorf("%s: zero interface declarations", r.Name)
		}
		if r.LibraryLOC == 0 {
			t.Errorf("%s: library LOC unavailable", r.Name)
		}
	}
	if RenderTableIII(rows).String() == "" || TableIV().String() == "" || TableVRender().String() == "" {
		t.Error("empty render")
	}
}

func TestTableVIIAllReproduced(t *testing.T) {
	rows, err := TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Reproduced {
			t.Errorf("attack %q: baseline/nested outcome pair not reproduced (%s | %s)",
				r.Attack, r.Monolithic, r.Nested)
		}
	}
	if RenderTableVII(rows).String() == "" {
		t.Error("empty render")
	}
}

func TestAblations(t *testing.T) {
	tr, err := AblationTransitionPath(2000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.DirectCycles >= tr.DetourCycles {
		t.Errorf("direct path (%d cyc) not cheaper than detour (%d cyc)", tr.DirectCycles, tr.DetourCycles)
	}
	sd, err := AblationShootdown(10)
	if err != nil {
		t.Fatal(err)
	}
	if sd.PreciseIPIs >= sd.BroadcastIPIs {
		t.Errorf("precise tracking (%d IPIs) not cheaper than broadcast (%d)", sd.PreciseIPIs, sd.BroadcastIPIs)
	}
	dp, err := AblationNestingDepth([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dp); i++ {
		if dp[i].ValidateSteps <= dp[i-1].ValidateSteps {
			t.Errorf("validation steps did not grow with depth: %d -> %d", dp[i-1].ValidateSteps, dp[i].ValidateSteps)
		}
		if dp[i].ChainCycles <= dp[i-1].ChainCycles {
			t.Errorf("chain round-trip cycles did not grow with depth: %d at depth %d -> %d at depth %d",
				dp[i-1].ChainCycles, dp[i-1].Depth, dp[i].ChainCycles, dp[i].Depth)
		}
	}
	tf, err := AblationTLBFlush(500)
	if err != nil {
		t.Fatal(err)
	}
	// Every n_ecall round trip flushes twice (NEENTER + NEEXIT) and forces
	// the inner working set to refill.
	if tf.FlushesPerCall < 2 {
		t.Errorf("flushes per call %.2f, want >= 2", tf.FlushesPerCall)
	}
	if tf.RefillMissesPerCall < 4 {
		t.Errorf("refill misses per call %.2f, want >= 4", tf.RefillMissesPerCall)
	}
	if tf.FlushCycleShare <= 0 || tf.FlushCycleShare >= 1 {
		t.Errorf("flush cycle share %.3f out of range", tf.FlushCycleShare)
	}
	for _, tbl := range []*Table{RenderAblationTransition(tr), RenderAblationShootdown(sd), RenderAblationDepth(dp), RenderAblationTLBFlush(tf)} {
		if tbl.String() == "" {
			t.Error("empty render")
		}
	}
}

func TestEchoServerHeartbeatBenign(t *testing.T) {
	// The patched (non-vulnerable) server still answers benign heartbeats
	// in both builds.
	for _, nested := range []bool{false, true} {
		r, err := NewRig(SmallMachine())
		if err != nil {
			t.Fatal(err)
		}
		es, err := BuildEchoServer(r, nested, false)
		if err != nil {
			t.Fatal(err)
		}
		client, err := es.Connect(ssl.Config{MinVersion: ssl.VersionTLS12Like})
		if err != nil {
			t.Fatal(err)
		}
		req, err := client.Heartbeat([]byte("alive?"), 6)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := es.Entry.ECall("tls_record", req)
		if err != nil {
			t.Fatal(err)
		}
		echo, err := client.OpenHeartbeatResponse(resp)
		if err != nil || string(echo) != "alive?" {
			t.Fatalf("%s: heartbeat echo %q %v", variantName(nested), echo, err)
		}
	}
}
