package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestDirectiveText(t *testing.T) {
	cases := []struct {
		comment string
		payload string
		ok      bool
	}{
		{"//nescheck:allow determinism because reasons", "determinism because reasons", true},
		{"//nescheck:allow\tdeterminism tabbed", "determinism tabbed", true},
		{"//nescheck:allow", "", true},
		{"// nescheck:allow determinism spaced out", "", false}, // directives bind tight, like //go:
		{"//nescheck:allowdeterminism glued", "", false},
		{"// plain comment", "", false},
	}
	for _, c := range cases {
		payload, ok := directiveText(c.comment)
		if ok != c.ok || payload != c.payload {
			t.Errorf("directiveText(%q) = %q, %v; want %q, %v", c.comment, payload, ok, c.payload, c.ok)
		}
	}
}

func TestRuleFamily(t *testing.T) {
	for in, want := range map[string]string{
		"determinism/wallclock":  "determinism",
		"errcheck":               "errcheck",
		"nescheck/bad-directive": "nescheck",
	} {
		if got := ruleFamily(in); got != want {
			t.Errorf("ruleFamily(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"nestedenclave/internal/sgx", "internal/sgx", true},
		{"fix/internal/sgx", "internal/sgx", true},
		{"internal/sgx", "internal/sgx", true},
		{"nestedenclave/internal/sgxx", "internal/sgx", false},
		{"nestedenclave/xinternal/sgx", "internal/sgx", false},
		{"internal/sgx/sub", "internal/sgx", false},
	}
	for _, c := range cases {
		if got := pathMatches(c.path, c.suffix); got != c.want {
			t.Errorf("pathMatches(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestAllCatalogIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || (a.Run == nil && a.RunProgram == nil) {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if a.Run != nil && a.RunProgram != nil {
			t.Errorf("analyzer %q declares both Run and RunProgram", a.Name)
		}
		if !rulePattern.MatchString(a.Name) {
			t.Errorf("analyzer name %q does not match the rule-family grammar", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 7 {
		t.Errorf("expected the 7 house analyzers, got %d", len(seen))
	}
}

// TestModuleIsClean is `make lint` as a test: the suite must run clean over
// the real tree, so a PR that introduces a violation (or reverts one of this
// PR's fixes) fails tier1, not just the lint target.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow; run without -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the tree", len(pkgs))
	}
	res := Analyze(pkgs, All(), Options{ReportStale: true})
	findings := append(res.Findings, res.Stale...)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Log("fix the findings, annotate with //nescheck:allow <rule> <reason>, or delete the stale allow")
	}
}

func TestFindingString(t *testing.T) {
	pkgs, err := LoadTree(filepath.Join(mustAbs(t, "testdata/src/meta"), "surprise"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, []*Analyzer{Determinism})
	if len(findings) != 1 {
		t.Fatalf("want 1 finding, got %v", findings)
	}
	s := findings[0].String()
	if !strings.Contains(s, "surprise.go:8:") || !strings.Contains(s, "determinism/wallclock:") {
		t.Errorf("finding string %q missing file:line or rule", s)
	}
}

func mustAbs(t *testing.T, p string) string {
	t.Helper()
	abs, err := filepath.Abs(p)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestExplorerPackagesAreReplayCritical pins the determinism rule's
// coverage of the exhaustive model checker and the attack engine:
// internal/simtest (the explorer and its enumeration loop), internal/model
// (the oracle whose canonical fingerprints key the memoization), and
// internal/adversary (whose (seed, strategy, ops) programs must replay
// byte-identically) must stay in the replay-critical set, or a global-RNG or
// map-order regression could make CI counterexamples and campaign breaches
// unreproducible without any analyzer finding.
func TestExplorerPackagesAreReplayCritical(t *testing.T) {
	for _, pkg := range []string{"internal/simtest", "internal/model", "internal/adversary"} {
		if !pathMatchesAny("nestedenclave/"+pkg, replayCriticalPkgs) {
			t.Errorf("%s dropped from replayCriticalPkgs: the exhaustive explorer's determinism is no longer enforced", pkg)
		}
	}
}
