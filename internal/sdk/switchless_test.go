package sdk_test

import (
	"bytes"
	"testing"
	"time"

	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// TestOCallAsyncElidesTransition drives N switchless ocalls from inside one
// ecall and checks that the ring path was taken: every call is one
// switchless_ocall op with its two ring charges, no EEXIT/EENTER pairs beyond
// the enclosing ecall's occur, and the per-call cycle cost is the fixed ring
// protocol cost rather than the full transition cost.
func TestOCallAsyncElidesTransition(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).
		AllowSwitchless("upper")
	const n = 32
	img.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
		var last []byte
		for i := 0; i < n; i++ {
			out, err := env.OCallAsync("upper", []byte{'a' + byte(i%26)})
			if err != nil {
				return nil, err
			}
			last = out
		}
		return last, nil
	})
	r.host.RegisterOCall("upper", func(args []byte) ([]byte, error) {
		return bytes.ToUpper(args), nil
	})

	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	exits := r.m.Rec.Get(trace.EvEEXIT)
	out, err := e.ECall("run", nil)
	if err != nil {
		t.Fatalf("ecall: %v", err)
	}
	if string(out) != string([]byte{'A' + byte((n-1)%26)}) {
		t.Fatalf("last response %q", out)
	}
	if got := r.m.Rec.Get(trace.EvSwitchless); got != 2*n {
		t.Fatalf("switchless events %d, want %d (submit+service per call)", got, 2*n)
	}
	if got := r.m.Rec.Get(trace.EvOCall); got != 0 {
		t.Fatalf("synchronous ocalls %d, want 0", got)
	}
	// The only EEXIT is the enclosing ecall's return: the ocalls never left.
	if got := r.m.Rec.Get(trace.EvEEXIT) - exits; got != 1 {
		t.Fatalf("EEXITs during ecall %d, want 1", got)
	}
	h := r.m.Rec.Hist(trace.OpSwitchlessOCall)
	if want := int64(trace.CostRingSubmit + trace.CostRingService); h.Count() != n || h.Mean() != float64(want) {
		t.Fatalf("switchless_ocall ops: %d with mean %.1f cycles, want %d with %d", h.Count(), h.Mean(), n, want)
	}
}

// TestOCallAsyncFallsBackSynchronously: an unmarked function routes through
// the ordinary transition-paying OCall with identical results.
func TestOCallAsyncFallsBackSynchronously(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).
		AllowOCall("plain")
	img.RegisterECall("plain", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.OCallAsync("plain", args) // not switchless-marked
	})
	r.host.RegisterOCall("plain", func(args []byte) ([]byte, error) { return args, nil })

	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	out, err := e.ECall("plain", []byte("x"))
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	if string(out) != "x" {
		t.Fatalf("plain returned %q", out)
	}
	if got := r.m.Rec.Get(trace.EvOCall); got != 1 {
		t.Fatalf("synchronous ocall count %d, want 1", got)
	}
	if got := r.m.Rec.Get(trace.EvSwitchless); got != 0 {
		t.Fatalf("ring events for an unmarked function: %d", got)
	}
}

// TestReentrantSwitchlessOCall: a switchless ocall whose host handler ECalls
// a second enclave, which makes a switchless ocall of its own. The outer
// ecall returns the innermost handler's result. A host that served the
// outer request on a worker of its own would wait on itself here.
func TestReentrantSwitchlessOCall(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	outerImg := sdk.NewImage("front", 0x1000_0000, sdk.DefaultLayout()).
		AllowSwitchless("hop")
	outerImg.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.OCallAsync("hop", args)
	})
	leafImg := sdk.NewImage("back", 0x2000_0000, sdk.DefaultLayout()).
		AllowSwitchless("upper")
	leafImg.RegisterECall("leaf", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.OCallAsync("upper", args)
	})
	leaf := mustLoad(t, r.host, leafImg.Sign(measure.MustNewAuthor(), nil, nil))
	front := mustLoad(t, r.host, outerImg.Sign(measure.MustNewAuthor(), nil, nil))
	r.host.RegisterOCall("hop", func(args []byte) ([]byte, error) {
		return leaf.ECall("leaf", args)
	})
	r.host.RegisterOCall("upper", func(args []byte) ([]byte, error) {
		return bytes.ToUpper(args), nil
	})

	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := front.ECall("run", []byte("nested"))
		done <- result{out, err}
	}()
	select {
	case res := <-done:
		if res.err != nil || string(res.out) != "NESTED" {
			t.Fatalf("re-entrant switchless ocall returned %q, %v; want \"NESTED\"", res.out, res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("re-entrant switchless ocall did not return within 10 s")
	}
	if got := r.m.Rec.Hist(trace.OpSwitchlessOCall).Count(); got != 2 {
		t.Fatalf("switchless_ocall ops %d, want 2", got)
	}
}

// TestSwitchlessMarkingIsMeasured: the EDL's switchless annotation is part of
// the trusted interface contract, so it must change MRENCLAVE.
func TestSwitchlessMarkingIsMeasured(t *testing.T) {
	a := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).AllowOCall("f")
	b := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).AllowSwitchless("f")
	if a.Measure() == b.Measure() {
		t.Fatal("switchless marking did not change the measurement")
	}
}

// TestCallMarshallingAllocs pins the defensive-copy budget of the hot
// ecall+ocall round trip. Before the copy-once change the path performed
// both an inbound and an outbound copy per boundary (7 allocs/op for this
// shape); with output ownership transfer it must stay at or below 5.
func TestCallMarshallingAllocs(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout()).AllowOCall("echo")
	img.RegisterECall("relay", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.OCall("echo", args)
	})
	r.host.RegisterOCall("echo", func(args []byte) ([]byte, error) { return args, nil })
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))

	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.ECall("relay", payload); err != nil {
			t.Fatalf("relay: %v", err)
		}
	})
	if allocs > 5 {
		t.Fatalf("ecall+ocall round trip allocates %.1f/op, want <= 5 (outbound copies removed)", allocs)
	}
}
