package sdk_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// --- Panic containment ---

// TestIsCrashOfNilAllocatesNothing pins the crash check every n_ocall and
// n_ecall makes of a successful call at zero allocations.
func TestIsCrashOfNilAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sdk.IsCrash(nil) }); n != 0 {
		t.Fatalf("IsCrash(nil) allocates %.0f times, want 0", n)
	}
}

func TestECallPanicContained(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("crashy", 0x1000_0000, sdk.DefaultLayout())
	img.RegisterECall("boom", func(env *sdk.Env, args []byte) ([]byte, error) {
		panic("trusted bug")
	})
	img.RegisterECall("ok", func(env *sdk.Env, args []byte) ([]byte, error) {
		return []byte("fine"), nil
	})
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))

	_, err := e.ECall("boom", nil)
	ec, ok := sdk.IsCrash(err)
	if !ok {
		t.Fatalf("want *EnclaveCrashed, got %v", err)
	}
	if ec.EID != e.SECS().EID || !strings.Contains(fmt.Sprint(ec.Panic), "trusted bug") {
		t.Fatalf("crash = %+v", ec)
	}

	// The crash must not leak enclave state: every core is out of enclave
	// mode with scrubbed registers, and the machine invariants hold.
	if v := r.m.AuditInvariants(); len(v) > 0 {
		t.Fatalf("invariants violated after contained crash: %v", v)
	}

	// The poisoned enclave refuses further entries...
	if _, err := e.ECall("ok", nil); err == nil {
		t.Fatal("poisoned enclave accepted a new ecall")
	}
	reason, poisoned := r.m.PoisonedReason(e.SECS().EID)
	if !poisoned || !strings.Contains(reason, "panic") {
		t.Fatalf("poison state = %q, %v", reason, poisoned)
	}

	// ...until it is destroyed (EREMOVE clears the mark) and reloaded.
	if err := r.host.Destroy(e); err != nil {
		t.Fatal(err)
	}
	e2 := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	out, err := e2.ECall("ok", nil)
	if err != nil || string(out) != "fine" {
		t.Fatalf("reloaded enclave: %q, %v", out, err)
	}
}

func TestNestedPanicPoisonsOnlyCrashedEnclave(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	outerImg := sdk.NewImage("outer", 0x2000_0000, sdk.DefaultLayout())
	outerImg.RegisterNOCall("svc", func(env *sdk.Env, args []byte) ([]byte, error) {
		panic("outer service bug")
	})
	innerImg := sdk.NewImage("inner", 0x1000_0000, sdk.DefaultLayout())
	innerImg.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.NOCall("svc", args)
	})
	innerImg.RegisterECall("ok", func(env *sdk.Env, args []byte) ([]byte, error) {
		return []byte("alive"), nil
	})
	si, so := signPair(t, innerImg, outerImg)
	outer := mustLoad(t, r.host, so)
	inner := mustLoad(t, r.host, si)
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}

	_, err := inner.ECall("run", nil)
	ec, ok := sdk.IsCrash(err)
	if !ok || ec.EID != outer.SECS().EID {
		t.Fatalf("want outer crash, got %v", err)
	}
	// The outer is poisoned; the inner survives and keeps serving.
	if _, poisoned := r.m.PoisonedReason(outer.SECS().EID); !poisoned {
		t.Fatal("outer not poisoned")
	}
	if _, poisoned := r.m.PoisonedReason(inner.SECS().EID); poisoned {
		t.Fatal("inner wrongly poisoned by outer's crash")
	}
	out, err := inner.ECall("ok", nil)
	if err != nil || string(out) != "alive" {
		t.Fatalf("inner after outer crash: %q, %v", out, err)
	}
	if v := r.m.AuditInvariants(); len(v) > 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// panicBackend passes line traffic through to the MEE but panics on the
// first line fetch after it is armed: a fault below the cache, raised on
// the access path while the core holds the machine read lock.
// panicPlatform is an honest platform whose DRAM-fetch hook panics once
// when armed: a fault raised below the cache, on the MEE's fetch path.
type panicPlatform struct {
	sgx.Honest
	armed atomic.Bool
}

func (p *panicPlatform) Disturb([]byte) {
	if p.armed.CompareAndSwap(true, false) {
		panic("memory backend fault")
	}
}

// TestPanicBelowCacheReleasesMachineLock: a panic raised under the cache
// during a trusted heap read, as the MEE fetches the line from DRAM, must
// unwind through the access path's read lock, so the crash containment
// (which takes the write lock to evacuate the core) completes and the
// machine keeps serving other enclaves.
func TestPanicBelowCacheReleasesMachineLock(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	platform := &panicPlatform{}
	readHeap := func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Read(env.E.Image().HeapBase(), 8)
	}
	victimImg := sdk.NewImage("victim", 0x1000_0000, sdk.DefaultLayout())
	victimImg.RegisterECall("read", func(env *sdk.Env, args []byte) ([]byte, error) {
		platform.armed.Store(true)
		return readHeap(env, args)
	})
	otherImg := sdk.NewImage("bystander", 0x2000_0000, sdk.DefaultLayout())
	otherImg.RegisterECall("read", readHeap)
	victim := mustLoad(t, r.host, victimImg.Sign(measure.MustNewAuthor(), nil, nil))
	other := mustLoad(t, r.host, otherImg.Sign(measure.MustNewAuthor(), nil, nil))

	// Write every dirty line back and empty the LLC of enclave lines, so
	// the victim's heap read reaches the MEE.
	sweepLLC(t, r)
	r.m.SetHostile(platform)

	done := make(chan error, 1)
	go func() {
		_, err := victim.ECall("read", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if _, ok := sdk.IsCrash(err); !ok {
			t.Fatalf("want *EnclaveCrashed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ECall did not return: the panic stranded the machine read lock")
	}
	if _, err := other.ECall("read", nil); err != nil {
		t.Fatalf("second enclave after the contained crash: %v", err)
	}
}

// --- Retry policy ---

func TestRetryPolicyRetriesTransientsOnly(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	calls := 0
	err := sdk.RetryPolicy{MaxAttempts: 5}.Run(r.m.Rec, nil, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky: %w", chaos.ErrTransient)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient retry: calls=%d err=%v", calls, err)
	}

	calls = 0
	permanent := errors.New("permanent")
	err = sdk.RetryPolicy{MaxAttempts: 5}.Run(r.m.Rec, nil, func() error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("permanent error retried: calls=%d err=%v", calls, err)
	}
}

func TestRetryPolicyBackoffAdvancesSimulatedClock(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	before := r.m.Rec.Cycles()
	_ = sdk.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10_000}.Run(r.m.Rec, nil, func() error {
		return fmt.Errorf("always: %w", chaos.ErrTransient)
	})
	if got := r.m.Rec.Cycles() - before; got < 30_000 {
		t.Fatalf("backoff advanced only %d cycles", got)
	}
}

// --- Supervisor: restart with sealed-state recovery ---

func TestSupervisorRestartRecoversSealedState(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())

	// A stateful counter service, keyed by EID so a reloaded instance starts
	// from zero unless the sealed checkpoint is replayed into it.
	counts := map[uint64]int{}
	img := sdk.NewImage("counter", 0x1000_0000, sdk.DefaultLayout())
	img.RegisterECall("incr", func(env *sdk.Env, args []byte) ([]byte, error) {
		eid := uint64(env.E.SECS().EID)
		counts[eid]++
		sealed, err := env.Seal(sgx.SealToEnclave, []byte{byte(counts[eid])})
		if err != nil {
			return nil, err
		}
		return append([]byte{byte(counts[eid])}, sealed...), nil
	})
	img.RegisterECall("restore", func(env *sdk.Env, args []byte) ([]byte, error) {
		pt, err := env.Unseal(sgx.SealToEnclave, args)
		if err != nil {
			return nil, err
		}
		counts[uint64(env.E.SECS().EID)] = int(pt[0])
		return nil, nil
	})
	img.RegisterECall("crash", func(env *sdk.Env, args []byte) ([]byte, error) {
		panic("induced")
	})

	sup, err := sdk.Supervise(r.host, img.Sign(measure.MustNewAuthor(), nil, nil), sdk.SupervisorConfig{
		RestoreECall: "restore",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		out, err := sup.Call("incr", nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(out[0]) != i {
			t.Fatalf("count = %d, want %d", out[0], i)
		}
		sup.Checkpoint(out[1:])
	}
	firstEID := sup.Enclave().SECS().EID

	// Crash it. Crashed() must recognize the wreckage and Restart must bring
	// up a fresh instance with the counter restored from the sealed blob.
	_, cerr := sup.Enclave().ECall("crash", nil)
	if !sup.Crashed(cerr) {
		t.Fatalf("crash not recognized: %v", cerr)
	}
	if err := sup.Restart(); err != nil {
		t.Fatal(err)
	}
	if sup.Restarts() != 1 {
		t.Fatalf("restarts = %d", sup.Restarts())
	}
	if sup.Enclave().SECS().EID == firstEID {
		t.Fatal("restart did not produce a fresh instance")
	}
	out, err := sup.Call("incr", nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(out[0]) != 4 {
		t.Fatalf("after recovery count = %d, want 4 (sealed state lost)", out[0])
	}
}

func TestSupervisorCallRestartsThroughCrashes(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	crashuntil := 2 // the first N calls crash
	calls := 0
	img := sdk.NewImage("wobbly", 0x1000_0000, sdk.DefaultLayout())
	img.RegisterECall("work", func(env *sdk.Env, args []byte) ([]byte, error) {
		calls++
		if calls <= crashuntil {
			panic("still warming up")
		}
		return []byte("ok"), nil
	})
	sup, err := sdk.Supervise(r.host, img.Sign(measure.MustNewAuthor(), nil, nil), sdk.SupervisorConfig{
		Retry: sdk.RetryPolicy{MaxAttempts: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sup.Call("work", nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("call = %q, %v", out, err)
	}
	if sup.Restarts() != 2 {
		t.Fatalf("restarts = %d, want 2", sup.Restarts())
	}
	if v := r.m.AuditInvariants(); len(v) > 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}
