package sdk_test

import (
	"testing"

	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// spansByName indexes completed spans; duplicate names keep the last.
func spansByName(spans []trace.Span) map[string][]trace.Span {
	m := map[string][]trace.Span{}
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}

// assertNoOpenSpans fails if any core still has an open span after the calls
// unwound — the invariant the spanpair nescheck rule guards statically and
// the crash/timeout tests below guard dynamically.
func assertNoOpenSpans(t *testing.T, rec *trace.Recorder, cores int) {
	t.Helper()
	for c := -1; c < cores; c++ {
		if id := rec.CurrentSpan(c); id != 0 {
			t.Errorf("core %d still has open span %d after unwind", c, id)
		}
	}
}

// TestSpanNestedCallChain reconstructs the host → inner enclave → outer
// service call tree of the nested SQL pattern from the span log alone:
// ecall:run is a root span and n_ocall:svc is its child, once per query.
func TestSpanNestedCallChain(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	rec := r.m.Rec
	rec.EnableObservation(1 << 12)

	outerImg := sdk.NewImage("outer", 0x2000_0000, sdk.DefaultLayout())
	outerImg.RegisterNOCall("svc", func(env *sdk.Env, args []byte) ([]byte, error) {
		return append([]byte("svc:"), args...), nil
	})
	innerImg := sdk.NewImage("inner", 0x1000_0000, sdk.DefaultLayout())
	innerImg.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.NOCall("svc", args)
	})
	si, so := signPair(t, innerImg, outerImg)
	outer := mustLoad(t, r.host, so)
	inner := mustLoad(t, r.host, si)
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}

	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := inner.ECall("run", []byte("q")); err != nil {
			t.Fatal(err)
		}
	}

	byName := spansByName(rec.Spans())
	roots, svcs := byName["ecall:run"], byName["n_ocall:svc"]
	if len(roots) != calls || len(svcs) != calls {
		t.Fatalf("got %d ecall:run and %d n_ocall:svc spans, want %d each",
			len(roots), len(svcs), calls)
	}
	rootIDs := map[uint64]bool{}
	for _, s := range roots {
		if s.Parent != 0 {
			t.Errorf("ecall:run span %d has parent %d, want root", s.ID, s.Parent)
		}
		if s.EID != uint64(inner.SECS().EID) {
			t.Errorf("ecall:run span billed to EID %d, want inner %d", s.EID, inner.SECS().EID)
		}
		rootIDs[s.ID] = true
	}
	for _, s := range svcs {
		if !rootIDs[s.Parent] {
			t.Errorf("n_ocall:svc span %d has parent %d, not an ecall:run span", s.ID, s.Parent)
		}
		if s.EID != uint64(outer.SECS().EID) {
			t.Errorf("n_ocall:svc span billed to EID %d, want outer %d", s.EID, outer.SECS().EID)
		}
	}
	assertNoOpenSpans(t, rec, 8)
}

// TestSpanClosedOnCrash pins span closure through the panic-unwind path: a
// trusted-code panic surfaces as *EnclaveCrashed AND the ecall's span is
// closed by the deferred End — no frame may stay open on the core stack, or
// every later event on that core would be misattributed to a dead call.
func TestSpanClosedOnCrash(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	rec := r.m.Rec
	rec.EnableObservation(1 << 10)

	img := sdk.NewImage("crashy", 0x1000_0000, sdk.DefaultLayout())
	img.RegisterECall("boom", func(env *sdk.Env, args []byte) ([]byte, error) {
		panic("trusted bug")
	})
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))

	_, err := e.ECall("boom", nil)
	if _, ok := sdk.IsCrash(err); !ok {
		t.Fatalf("want *EnclaveCrashed, got %v", err)
	}

	byName := spansByName(rec.Spans())
	booms := byName["ecall:boom"]
	if len(booms) != 1 {
		t.Fatalf("got %d completed ecall:boom spans, want 1 (closed through panic unwind)", len(booms))
	}
	if sp := booms[0]; sp.End < sp.Start {
		t.Errorf("crash span [%d,%d] never properly closed", sp.Start, sp.End)
	}
	assertNoOpenSpans(t, rec, 8)
}

// TestSpanSupervisorRestart verifies the restart span: a supervised crash
// produces a machine-global restart span enclosing the reload, so recovery
// cost is visible in the call tree.
func TestSpanSupervisorRestart(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	rec := r.m.Rec
	rec.EnableObservation(1 << 12)

	img := sdk.NewImage("svc", 0x1000_0000, sdk.DefaultLayout())
	crashed := false // the first call panics; the reloaded instance serves
	img.RegisterECall("maybe", func(env *sdk.Env, args []byte) ([]byte, error) {
		if !crashed {
			crashed = true
			panic("induced")
		}
		return []byte("ok"), nil
	})
	sup, err := sdk.Supervise(r.host, img.Sign(measure.MustNewAuthor(), nil, nil), sdk.SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Call("maybe", nil); err != nil {
		t.Fatalf("supervised call failed to recover: %v", err)
	}
	if sup.Restarts() == 0 {
		t.Fatal("no restart happened; the test exercised nothing")
	}

	byName := spansByName(rec.Spans())
	restarts := byName["restart:svc"]
	if len(restarts) != sup.Restarts() {
		t.Fatalf("got %d restart:svc spans, want %d", len(restarts), sup.Restarts())
	}
	for _, s := range restarts {
		if s.Core != trace.NoCore {
			t.Errorf("restart span on core %d, want machine-global NoCore", s.Core)
		}
		if s.Cycles() <= 0 {
			t.Errorf("restart span has %d cycles, want > 0 (reload is not free)", s.Cycles())
		}
	}
	assertNoOpenSpans(t, rec, 8)
}
