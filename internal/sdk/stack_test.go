package sdk_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// Tests of the staging contract: each trusted call runs on a private copy of
// its arguments kept on its core's staging stack, valid only for the call,
// and a result that shares the copy is copied out before the stack pops.

// pattern returns n bytes counting up from tag.
func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i)
	}
	return b
}

// scribble overwrites b, as a handler may do with its own args.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// expectArgs fails the test from inside a handler when args is not want.
func expectArgs(t *testing.T, where string, args, want []byte) {
	t.Helper()
	if !bytes.Equal(args, want) {
		t.Errorf("%s: args %d bytes %x..., want %d bytes %x...", where, len(args), head(args), len(want), head(want))
	}
}

func head(b []byte) []byte { return b[:min(len(b), 8)] }

// stackRig is an outer/inner pair whose images carry the handlers the
// staging tests call: "echo" and "nil" everywhere, "mutate" everywhere,
// and "check", which fails the call unless its args equal the rig's want.
type stackRig struct {
	*testRig
	outer, inner *sdk.Enclave
	want         []byte
}

func newStackRig(t *testing.T, extra func(innerImg, outerImg *sdk.Image)) *stackRig {
	t.Helper()
	sr := &stackRig{testRig: newRig(t, sgx.TwoLevel())}
	innerImg := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	echo := func(env *sdk.Env, args []byte) ([]byte, error) { return args, nil }
	nilFn := func(env *sdk.Env, args []byte) ([]byte, error) { return nil, nil }
	mutate := func(env *sdk.Env, args []byte) ([]byte, error) {
		scribble(args)
		return nil, nil
	}
	check := func(env *sdk.Env, args []byte) ([]byte, error) {
		if !bytes.Equal(args, sr.want) {
			return nil, fmt.Errorf("args %x, want %x", head(args), head(sr.want))
		}
		return nil, nil
	}
	for _, img := range []*sdk.Image{innerImg, outerImg} {
		img.RegisterECall("echo", echo).RegisterECall("nil", nilFn).
			RegisterECall("mutate", mutate).RegisterECall("check", check)
	}
	outerImg.RegisterNOCall("echo", echo).RegisterNOCall("nil", nilFn).RegisterNOCall("mutate", mutate)
	if extra != nil {
		extra(innerImg, outerImg)
	}
	si, so := signPair(t, innerImg, outerImg)
	sr.outer = mustLoad(t, sr.host, so)
	sr.inner = mustLoad(t, sr.host, si)
	if err := sr.host.Associate(sr.inner, sr.outer); err != nil {
		t.Fatal(err)
	}
	return sr
}

// expectEmpty fails unless every core's staging stack is empty.
func (sr *stackRig) expectEmpty(t *testing.T, after string) {
	t.Helper()
	if args, frames := sdk.Staged(sr.host); args != 0 || frames != 0 {
		t.Fatalf("after %s the staging stacks hold %d bytes and %d frames, want none", after, args, frames)
	}
}

// expectCheck runs the "check" ecall with fresh args, which must arrive
// intact.
func (sr *stackRig) expectCheck(t *testing.T, after string) {
	t.Helper()
	sr.want = pattern(0x5A, 300)
	if _, err := sr.outer.ECall("check", sr.want); err != nil {
		t.Fatalf("first call after %s: %v", after, err)
	}
}

// TestStagedArgsSurviveNestedCalls runs the chain ECall → NECall →
// fast-path NOCall → upward NOCall across three nesting levels. Every
// handler scribbles over its own args before it returns, and the arguments
// grow with depth so the stack reallocates mid-chain; each frame's args
// must still be intact when its nested call returns.
func TestStagedArgsSurviveNestedCalls(t *testing.T) {
	r := newRig(t, sgx.NestingConfig{}) // unlimited depth
	a1, a2, a3, a4 := pattern(0x10, 40), pattern(0x20, 5000), pattern(0x30, 70), pattern(0x40, 20000)
	appImg := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	midImg := sdk.NewImage("mid", 0x2000_0000, sdk.DefaultLayout())
	libImg := sdk.NewImage("lib", 0x3000_0000, sdk.DefaultLayout())
	midImg.RegisterECall("top", func(env *sdk.Env, args []byte) ([]byte, error) {
		expectArgs(t, "top on entry", args, a1)
		if _, err := env.NECall(env.E.Inners()[0], "work", a2); err != nil {
			return nil, err
		}
		expectArgs(t, "top after NECall", args, a1)
		scribble(args)
		return nil, nil
	})
	appImg.RegisterECall("work", func(env *sdk.Env, args []byte) ([]byte, error) {
		expectArgs(t, "work on entry", args, a2)
		if !env.C.CurrentTCS().Ret() {
			t.Error("work: not NEENTERed, so its NOCall takes no fast path")
		}
		if _, err := env.NOCall("serve", a3); err != nil {
			return nil, err
		}
		expectArgs(t, "work after the fast-path NOCall", args, a2)
		scribble(args)
		return nil, nil
	})
	midImg.RegisterNOCall("serve", func(env *sdk.Env, args []byte) ([]byte, error) {
		expectArgs(t, "serve on entry", args, a3)
		if env.C.CurrentTCS().Ret() {
			t.Error("serve: NEENTERed, so its NOCall is not upward")
		}
		if _, err := env.NOCall("base", a4); err != nil {
			return nil, err
		}
		expectArgs(t, "serve after the upward NOCall", args, a3)
		scribble(args)
		return nil, nil
	})
	libImg.RegisterNOCall("base", func(env *sdk.Env, args []byte) ([]byte, error) {
		expectArgs(t, "base on entry", args, a4)
		scribble(args)
		return nil, nil
	})
	sApp := appImg.Sign(measure.MustNewAuthor(), []measure.Digest{midImg.Measure()}, nil)
	sMid := midImg.Sign(measure.MustNewAuthor(), []measure.Digest{libImg.Measure()}, []measure.Digest{appImg.Measure()})
	sLib := libImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{midImg.Measure()})
	app, mid, lib := mustLoad(t, r.host, sApp), mustLoad(t, r.host, sMid), mustLoad(t, r.host, sLib)
	if err := r.host.Associate(mid, lib); err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(app, mid); err != nil {
		t.Fatal(err)
	}
	// More rounds than cores, so some core runs the chain on a stack an
	// earlier round already grew.
	for round := 0; round < 2*len(r.m.Cores()); round++ {
		if _, err := mid.ECall("top", a1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if args, frames := sdk.Staged(r.host); args != 0 || frames != 0 {
			t.Fatalf("round %d left %d bytes and %d frames staged", round, args, frames)
		}
	}
	for _, a := range [][]byte{a1, a2, a3, a4} {
		if !bytes.Equal(a, pattern(a[0], len(a))) {
			t.Fatal("a handler's scribbling reached its caller's buffer")
		}
	}
}

// TestHandlerCannotChangeCallerArgs: a handler that overwrites its args
// leaves its caller's buffer unchanged on every trusted-call path.
func TestHandlerCannotChangeCallerArgs(t *testing.T) {
	buf := pattern(0x11, 100)
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		outerImg.RegisterECall("down", func(env *sdk.Env, args []byte) ([]byte, error) {
			if _, err := env.NECall(env.E.Inners()[0], "mutate", args); err != nil {
				return nil, err
			}
			expectArgs(t, "down after NECall", args, buf)
			return nil, nil
		})
		innerImg.RegisterECall("up", func(env *sdk.Env, args []byte) ([]byte, error) {
			if _, err := env.NOCall("mutate", args); err != nil {
				return nil, err
			}
			expectArgs(t, "up after NOCall", args, buf)
			return nil, nil
		})
	})
	calls := []struct {
		name string
		call func() error
	}{
		{"ECall", func() error { _, err := sr.outer.ECall("mutate", buf); return err }},
		{"NECall", func() error { _, err := sr.outer.ECall("down", buf); return err }},
		{"NOCall", func() error { _, err := sr.inner.ECall("up", buf); return err }},
	}
	for _, c := range calls {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(buf, pattern(0x11, 100)) {
			t.Fatalf("%s: the handler changed the host's buffer", c.name)
		}
	}
}

// TestEchoResultsAreNeverOverwritten: handlers that return their args, or
// a slice of them with a reduced capacity, hand back results that no later
// call of any kind overwrites; and appending to such a result does not reach
// a later call's args.
func TestEchoResultsAreNeverOverwritten(t *testing.T) {
	type kept struct {
		name      string
		got, want []byte
	}
	var results []kept
	recording := true
	keep := func(name string, got, want []byte) {
		if recording {
			results = append(results, kept{name, got, want})
		}
	}
	var fastIn, fastWant []byte
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		outerImg.RegisterECall("slice", func(env *sdk.Env, args []byte) ([]byte, error) {
			return args[1:3:3], nil
		})
		outerImg.RegisterECall("collect", func(env *sdk.Env, args []byte) ([]byte, error) {
			in := env.E.Inners()[0]
			y1, y2, y3 := pattern(0x61, 33), pattern(0x62, 700), pattern(0x63, 9)
			out, err := env.NECall(in, "echo", y1)
			if err != nil {
				return nil, err
			}
			keep("NECall", out, y1)
			for _, y := range [][]byte{y2, y3} {
				if out, err = env.NECall(in, "echo", y); err != nil {
					return nil, err
				}
				keep("NECall", out, y)
			}
			fastIn, fastWant = pattern(0x64, 41), pattern(0x64, 41)
			_, err = env.NECall(in, "fast", nil)
			return nil, err
		})
		innerImg.RegisterECall("fast", func(env *sdk.Env, args []byte) ([]byte, error) {
			out, err := env.NOCall("echo", fastIn)
			if err != nil {
				return nil, err
			}
			keep("fast-path NOCall", out, fastWant)
			return nil, nil
		})
		innerImg.RegisterECall("up", func(env *sdk.Env, args []byte) ([]byte, error) {
			z := pattern(0x65, 1500)
			out, err := env.NOCall("echo", z)
			if err != nil {
				return nil, err
			}
			keep("upward NOCall", out, z)
			return nil, nil
		})
	})
	x1, x2, x3, x4 := pattern(0x51, 64), pattern(0x52, 10), pattern(0x53, 4096), pattern(0x54, 3)
	out, err := sr.outer.ECall("echo", x1)
	if err != nil {
		t.Fatal(err)
	}
	keep("ECall", out, x1)
	if out, err = sr.outer.ECall("slice", x2); err != nil {
		t.Fatal(err)
	}
	keep("ECall of a 3-index slice", out, x2[1:3])
	for _, x := range [][]byte{x3, x4} {
		if out, err = sr.outer.ECall("echo", x); err != nil {
			t.Fatal(err)
		}
		keep("ECall", out, x)
	}
	if _, err := sr.outer.ECall("collect", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.inner.ECall("up", nil); err != nil {
		t.Fatal(err)
	}
	// Append into a result's spare capacity, then make sure later args
	// arrive intact.
	grown, err := sr.outer.ECall("echo", pattern(0x70, 5))
	if err != nil {
		t.Fatal(err)
	}
	grown = append(grown, pattern(0x71, 200)...)
	keep("appended-to ECall", grown, append(pattern(0x70, 5), pattern(0x71, 200)...))
	recording = false
	for i := 0; i < 20; i++ {
		sr.expectCheck(t, "an append to a result")
		junk := bytes.Repeat([]byte{0xEE}, 50+i*300)
		if _, err := sr.outer.ECall("echo", junk); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.outer.ECall("collect", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.inner.ECall("up", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range results {
		if !bytes.Equal(k.got, k.want) {
			t.Errorf("%s result overwritten: %x..., want %x...", k.name, head(k.got), head(k.want))
		}
	}
	sr.expectEmpty(t, "the echo calls")
}

// TestStackEmptyAfterCrash: an inner crash contained mid-chain leaves every
// core's staging stack empty, and the next call receives its args intact.
func TestStackEmptyAfterCrash(t *testing.T) {
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		innerImg.RegisterECall("boom", func(env *sdk.Env, args []byte) ([]byte, error) {
			panic("inner bug")
		})
		outerImg.RegisterECall("crash_inner", func(env *sdk.Env, args []byte) ([]byte, error) {
			return env.NECall(env.E.Inners()[0], "boom", pattern(0x22, 4096))
		})
	})
	_, err := sr.outer.ECall("crash_inner", pattern(0x21, 2000))
	if _, crashed := sdk.IsCrash(err); !crashed {
		t.Fatalf("inner panic: %v, want *EnclaveCrashed", err)
	}
	sr.expectEmpty(t, "a contained inner crash")
	sr.expectCheck(t, "a contained inner crash")
}

// TestTrustedCallsAllocateNothing pins the host cost of the staged calls:
// with a nil-returning handler, ECall, NECall and both NOCall paths
// allocate nothing once the stacks have grown. Not parallel: it reads the
// process-wide allocation counter.
func TestTrustedCallsAllocateNothing(t *testing.T) {
	args := make([]byte, 64)
	measured := map[string]float64{}
	measure := func(name string, op func() error) {
		var err error
		measured[name] = testing.AllocsPerRun(100, func() {
			if e := op(); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		outerImg.RegisterECall("measure", func(env *sdk.Env, _ []byte) ([]byte, error) {
			in := env.E.Inners()[0]
			measure("NECall", func() error { _, err := env.NECall(in, "nil", args); return err })
			_, err := env.NECall(in, "measure_fast", nil)
			return nil, err
		})
		innerImg.RegisterECall("measure_fast", func(env *sdk.Env, _ []byte) ([]byte, error) {
			measure("fast-path NOCall", func() error { _, err := env.NOCall("nil", args); return err })
			return nil, nil
		})
		innerImg.RegisterECall("measure_up", func(env *sdk.Env, _ []byte) ([]byte, error) {
			measure("upward NOCall", func() error { _, err := env.NOCall("nil", args); return err })
			return nil, nil
		})
	})
	measure("ECall", func() error { _, err := sr.outer.ECall("nil", args); return err })
	for _, call := range []struct {
		e    *sdk.Enclave
		name string
	}{{sr.outer, "measure"}, {sr.inner, "measure_up"}} {
		if _, err := call.e.ECall(call.name, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]float64{
		"ECall": 0, "NECall": 0, "fast-path NOCall": 0, "upward NOCall": 0,
	}
	for name, w := range want {
		got, ok := measured[name]
		if !ok {
			t.Errorf("%s not measured", name)
		} else if got != w {
			t.Errorf("%s allocates %.0f times, want %.0f", name, got, w)
		}
	}
}

// TestNEEXITIntoDestroyedOuterEvacuatesCore: the outer enclave is destroyed
// while its inner waits on an ocall. The inner's return NEEXIT is refused,
// so the runtime evacuates the core, as after a crash: the call fails with
// the #GP, the staging stack is empty, the machine's invariants hold and
// every core goes back to the pool usable.
func TestNEEXITIntoDestroyedOuterEvacuatesCore(t *testing.T) {
	var sr *stackRig
	sr = newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		innerImg.AllowOCall("kill_outer")
		innerImg.RegisterECall("wait", func(env *sdk.Env, args []byte) ([]byte, error) {
			return env.OCall("kill_outer", nil)
		})
		outerImg.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
			return env.NECall(env.E.Inners()[0], "wait", args)
		})
	})
	sr.host.RegisterOCall("kill_outer", func([]byte) ([]byte, error) {
		return nil, sr.k.Driver.DestroyEnclave(sr.host.Proc, sr.outer.SECS())
	})
	_, err := sr.outer.ECall("run", pattern(0x31, 128))
	if !isa.IsFault(errors.Unwrap(err), isa.FaultGP) {
		t.Fatalf("NEEXIT into the destroyed outer: %v, want the #GP", err)
	}
	if v := sr.m.AuditInvariants(); len(v) != 0 {
		t.Fatalf("invariants after the refused NEEXIT: %v", v)
	}
	sr.expectEmpty(t, "a refused NEEXIT")
	for i := 0; i <= len(sr.m.Cores()); i++ {
		sr.want = pattern(byte(i), 64)
		if _, err := sr.inner.ECall("check", sr.want); err != nil {
			t.Fatalf("inner ecall %d after the evacuation: %v", i, err)
		}
	}
}
