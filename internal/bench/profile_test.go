package bench

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/trace"
)

// TestProfileTreeShape pins the causal structure of the nested SQL service:
// every n_ocall:sql_exec span is a child of an ecall:query span, and the
// staged memory path produces page walks.
func TestProfileTreeShape(t *testing.T) {
	p, err := ProfileSQLService(ProfileConfig{Queries: 80})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hists["page_walk"].Count+p.Hists["nested_page_walk"].Count == 0 {
		t.Error("workload produced no page walks; the staged memory path regressed")
	}
	byID := map[uint64]trace.Span{}
	for _, s := range p.Spans {
		byID[s.ID] = s
	}
	var nSQL int
	for _, s := range p.Spans {
		if s.Name != "n_ocall:sql_exec" {
			continue
		}
		nSQL++
		parent, ok := byID[s.Parent]
		if !ok || parent.Name != "ecall:query" {
			t.Fatalf("n_ocall:sql_exec span %d parents to %q, want ecall:query", s.ID, parent.Name)
		}
	}
	if nSQL == 0 {
		t.Fatal("no n_ocall:sql_exec spans; the nested hop disappeared")
	}
	// The rendered tree shows the nesting.
	out := p.RenderTree()
	if !strings.Contains(out, "ecall:query") || !strings.Contains(out, "  n_ocall:sql_exec") {
		t.Errorf("rendered tree lost the nesting:\n%s", out)
	}
}

// TestProfileFoldedStacks verifies the folded export of the call tree: the
// root-only and the nested stack both carry self cycles, no stack names an
// operation the workload never ran, and the lines sum to the tree's total
// root cycles.
func TestProfileFoldedStacks(t *testing.T) {
	p, err := ProfileSQLService(ProfileConfig{Queries: 100})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteFolded(&buf, p.Tree); err != nil {
		t.Fatal(err)
	}
	folded := map[string]int64{}
	var sum int64
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		stack, n, ok := strings.Cut(line, " ")
		v, err := strconv.ParseInt(n, 10, 64)
		if !ok || err != nil || v <= 0 {
			t.Fatalf("malformed folded line %q", line)
		}
		folded[stack] = v
		sum += v
	}
	if folded["ecall:query"] == 0 {
		t.Error("no self cycles in the root-only ecall:query stack")
	}
	if folded["ecall:query;n_ocall:sql_exec"] == 0 {
		t.Error("no self cycles in the nested ecall;n_ocall stack")
	}
	valid := map[string]bool{
		"ecall:query": true, "n_ocall:sql_exec": true, "page_walk": true,
		"ewb": true, "eld": true,
	}
	for stack := range folded {
		for _, frame := range strings.Split(stack, ";") {
			if !valid[frame] {
				t.Errorf("folded stack %q contains frame %q the workload never opened", stack, frame)
			}
		}
	}
	var root int64
	for _, c := range p.Tree.Children {
		root += c.Cycles
	}
	if sum != root {
		t.Errorf("folded stacks sum to %d cycles, the tree's roots to %d", sum, root)
	}
}

// TestChaosInjectionAnnotatesSpan verifies fault injections land as annotated
// events inside the active span: with a core-stall site firing on every
// access, each EvChaosInject record must be stamped with an open span that
// completes as part of the call tree.
func TestChaosInjectionAnnotatesSpan(t *testing.T) {
	r, err := NewRig(SmallMachine())
	if err != nil {
		t.Fatal(err)
	}
	rec := r.M.Rec
	rec.EnableObservation(1 << 14)
	r.M.SetHostile(chaos.New(chaos.Config{
		Seed: 1,
		Sites: map[chaos.Site]chaos.SiteConfig{
			chaos.SiteSlowCore: {Prob: 1, Budget: 32},
		},
	}, rec))

	s, err := BuildSQLService(r, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("INSERT INTO usertable VALUES (1, 'v')"); err != nil {
		t.Fatal(err)
	}

	spanByID := map[uint64]trace.Span{}
	for _, sp := range rec.Spans() {
		spanByID[sp.ID] = sp
	}
	var injects, annotated int
	for _, rc := range rec.Log().Snapshot() {
		if rc.Event != trace.EvChaosInject {
			continue
		}
		injects++
		if rc.Span == 0 {
			continue
		}
		if _, ok := spanByID[rc.Span]; ok {
			annotated++
		}
	}
	if injects == 0 {
		t.Fatal("no chaos injections fired; the site config is wrong")
	}
	if annotated == 0 {
		t.Errorf("none of %d injections attached to a completed span", injects)
	}
}

// TestProfileDeterministic pins the committed-baseline premise end to end:
// two full profiling runs produce identical cycle totals, spans and call
// trees.
func TestProfileDeterministic(t *testing.T) {
	run := func() *ProfileResult {
		p, err := ProfileSQLService(ProfileConfig{Queries: 60})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("cycle totals diverged: %d vs %d", a.Cycles, b.Cycles)
	}
	if !reflect.DeepEqual(a.Spans, b.Spans) {
		t.Fatalf("spans diverged: %d vs %d", len(a.Spans), len(b.Spans))
	}
	if !reflect.DeepEqual(a.Tree, b.Tree) {
		t.Errorf("call trees diverged:\n%s\nvs\n%s", a.RenderTree(), b.RenderTree())
	}
}
