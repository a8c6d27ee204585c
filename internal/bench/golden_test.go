package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden replays pin the two deterministic harnesses byte for byte: the
// chaos soak's report and the adversary campaign's scoreboard plus every
// strategy's transcript (with the simulated cycle each action landed on).
// Both files were recorded once; a refactor of the hostile-platform hooks
// must reproduce them exactly. Regenerate with -update only when a change to
// the injector, a strategy, or the cost model is deliberate.

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*_golden.txt replays from the current code")

// checkGolden compares got with the named file under testdata/, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}

// TestChaosReportGolden replays the soak `repro -chaos -seed 0xC0FFEE -ops
// 2000` runs and compares its report with the recorded one.
func TestChaosReportGolden(t *testing.T) {
	rep, err := ChaosSoak(ChaosConfig{Seed: 0xC0FFEE, Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chaos_c0ffee_2000_golden.txt", rep.String())
}

// TestCampaignGolden replays the adversary campaign for seed 0xad5eed and
// compares the scoreboard and all transcripts, rendered as `repro -adversary
// -v` prints them between its header and summary lines, with the recorded
// ones.
func TestCampaignGolden(t *testing.T) {
	results, err := RunCampaign(0xad5eed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintln(&b, Scoreboard(results))
	for _, r := range results {
		fmt.Fprintf(&b, "--- %s ---\n%s", r.Program.Strategy, r.Transcript)
	}
	checkGolden(t, "campaign_ad5eed_golden.txt", b.String())
}
