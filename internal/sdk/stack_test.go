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
// its arguments kept on its core's staging stack, its Env.Read results are
// reserved on the same stack, both are valid only for the call, and a result
// that shares them is copied out before the stack pops and clears.

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

// readBytes is the size of each Read the "read" handlers make.
const readBytes = 256

// readLoop returns a handler that makes n Reads of readBytes from its
// enclave's heap and returns nothing.
func readLoop(n int) sdk.TrustedFunc {
	return func(env *sdk.Env, _ []byte) ([]byte, error) {
		heap := env.E.Image().HeapBase()
		for i := 0; i < n; i++ {
			if _, err := env.Read(heap+isa.VAddr(i*readBytes), readBytes); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
}

// readback writes args to its enclave's heap and returns a Read of them.
func readback(env *sdk.Env, args []byte) ([]byte, error) {
	heap := env.E.Image().HeapBase()
	if err := env.Write(heap, args); err != nil {
		return nil, err
	}
	return env.Read(heap, len(args))
}

// stackRig is an outer/inner pair whose images carry the handlers the
// staging tests call: "echo", "nil", "mutate", "read" (one Read of
// readBytes), "read64" (64 of them) and "readback" everywhere, and "check",
// which fails the call unless its args equal the rig's want.
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
			RegisterECall("mutate", mutate).RegisterECall("check", check).
			RegisterECall("read", readLoop(1)).RegisterECall("read64", readLoop(64)).
			RegisterECall("readback", readback)
	}
	outerImg.RegisterNOCall("echo", echo).RegisterNOCall("nil", nilFn).RegisterNOCall("mutate", mutate).
		RegisterNOCall("read", readLoop(1)).RegisterNOCall("readback", readback)
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
// allocate nothing once the stacks have grown, and neither do the Env.Read
// results such a handler makes (an ecall's 64 Reads, one Read under each
// nested path). Not parallel: it reads the process-wide allocation counter.
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
		// With 24 KiB of args, four 8 KiB Reads stage 56 KiB: within
		// sdk.MaxKeptStack, though doubling the stack would pass it.
		outerImg.RegisterECall("read4x8k", func(env *sdk.Env, _ []byte) ([]byte, error) {
			for i := 0; i < 4; i++ {
				if _, err := env.Read(env.E.Image().HeapBase(), 8<<10); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		outerImg.RegisterECall("measure", func(env *sdk.Env, _ []byte) ([]byte, error) {
			in := env.E.Inners()[0]
			measure("NECall", func() error { _, err := env.NECall(in, "nil", args); return err })
			measure("NECall with a Read", func() error { _, err := env.NECall(in, "read", args); return err })
			_, err := env.NECall(in, "measure_fast", nil)
			return nil, err
		})
		innerImg.RegisterECall("measure_fast", func(env *sdk.Env, _ []byte) ([]byte, error) {
			measure("fast-path NOCall", func() error { _, err := env.NOCall("nil", args); return err })
			measure("fast-path NOCall with a Read", func() error { _, err := env.NOCall("read", args); return err })
			return nil, nil
		})
		innerImg.RegisterECall("measure_up", func(env *sdk.Env, _ []byte) ([]byte, error) {
			measure("upward NOCall", func() error { _, err := env.NOCall("nil", args); return err })
			measure("upward NOCall with a Read", func() error { _, err := env.NOCall("read", args); return err })
			return nil, nil
		})
	})
	measure("ECall", func() error { _, err := sr.outer.ECall("nil", args); return err })
	measure("ECall of 64 Reads", func() error { _, err := sr.outer.ECall("read64", args); return err })
	bigArgs := make([]byte, 24<<10)
	measure("ECall staging 56 KiB", func() error { _, err := sr.outer.ECall("read4x8k", bigArgs); return err })
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
		"ECall of 64 Reads": 0, "ECall staging 56 KiB": 0, "NECall with a Read": 0,
		"fast-path NOCall with a Read": 0, "upward NOCall with a Read": 0,
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

// TestReturnedReadResultsSurvive: a handler that returns an Env.Read result
// hands back bytes that no later call overwrites, on ECall, NECall and
// both NOCall paths: the runtime copies the result out before the frame's
// reads are cleared and reused.
func TestReturnedReadResultsSurvive(t *testing.T) {
	type kept struct {
		name      string
		got, want []byte
	}
	var results []kept
	// The first round's results are kept; later rounds read other bytes
	// at the same stack offsets.
	tag := byte(0x40)
	keep := func(name string, got, want []byte) {
		if tag == 0x40 {
			results = append(results, kept{name, got, want})
		} else if !bytes.Equal(got, want) {
			t.Errorf("later %s read %x..., want %x...", name, head(got), head(want))
		}
	}
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		outerImg.RegisterECall("collect", func(env *sdk.Env, args []byte) ([]byte, error) {
			y := pattern(tag+1, 700)
			out, err := env.NECall(env.E.Inners()[0], "readback", y)
			if err != nil {
				return nil, err
			}
			keep("NECall", out, y)
			_, err = env.NECall(env.E.Inners()[0], "fast", nil)
			return nil, err
		})
		innerImg.RegisterECall("fast", func(env *sdk.Env, args []byte) ([]byte, error) {
			z := pattern(tag+2, 90)
			out, err := env.NOCall("readback", z)
			if err != nil {
				return nil, err
			}
			keep("fast-path NOCall", out, z)
			return nil, nil
		})
		innerImg.RegisterECall("up", func(env *sdk.Env, args []byte) ([]byte, error) {
			w := pattern(tag+3, 1500)
			out, err := env.NOCall("readback", w)
			if err != nil {
				return nil, err
			}
			keep("upward NOCall", out, w)
			return nil, nil
		})
	})
	// More rounds than cores, so every core's stack serves later calls.
	for round := 0; round < 2*len(sr.m.Cores()); round++ {
		x := pattern(tag, 64)
		out, err := sr.outer.ECall("readback", x)
		if err != nil {
			t.Fatal(err)
		}
		keep("ECall", out, x)
		if _, err := sr.outer.ECall("collect", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.inner.ECall("up", nil); err != nil {
			t.Fatal(err)
		}
		tag += 0x10
	}
	for _, k := range results {
		if !bytes.Equal(k.got, k.want) {
			t.Errorf("%s Read result overwritten: %x..., want %x...", k.name, head(k.got), head(k.want))
		}
	}
	sr.expectEmpty(t, "the readback calls")
}

// TestKeptReadResultReadsZeros: a handler that keeps an Env.Read result
// past its call, against the contract, finds it cleared when the call
// returns, and still cleared after later calls on every core read other
// secrets at the same stack offsets; never a later call's bytes.
func TestKeptReadResultReadsZeros(t *testing.T) {
	var kept [][]byte
	keep := func(env *sdk.Env, args []byte) ([]byte, error) {
		b, err := readback(env, args)
		if err != nil {
			return nil, err
		}
		kept = append(kept, b)
		return nil, nil
	}
	expectZeros := func(where string) {
		t.Helper()
		for i, b := range kept {
			if !bytes.Equal(b, make([]byte, 300)) {
				t.Errorf("%s: kept Read result %d reads %d bytes %x..., want 300 zeros", where, i, len(b), head(b))
			}
		}
	}
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		innerImg.RegisterECall("keep", keep)
		outerImg.RegisterECall("keep", keep)
		outerImg.RegisterECall("nested_keep", func(env *sdk.Env, args []byte) ([]byte, error) {
			if _, err := env.NECall(env.E.Inners()[0], "keep", args); err != nil {
				return nil, err
			}
			expectZeros("after the NECall returned")
			return nil, nil
		})
	})
	if _, err := sr.outer.ECall("keep", pattern(0x11, 300)); err != nil {
		t.Fatal(err)
	}
	expectZeros("after the ECall returned")
	if _, err := sr.outer.ECall("nested_keep", pattern(0x22, 300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*len(sr.m.Cores()); i++ {
		if _, err := sr.outer.ECall("readback", pattern(byte(0x80+i), 300)); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.inner.ECall("readback", pattern(byte(0xC0+i), 300)); err != nil {
			t.Fatal(err)
		}
	}
	expectZeros("after later calls")
	if len(kept) != 2 {
		t.Fatalf("kept %d Read results, want 2", len(kept))
	}
}

// TestReadsOutgrowingStackKeepEarlierResults: on fresh stacks, one ecall
// makes Reads that grow fourfold, with an n_ecall in between whose own
// Read outgrows the stack again, so the stack reallocates several times
// mid-call. Every earlier result stays intact until the call returns, and
// the result it returns, staged in a buffer the stack has since outgrown,
// reaches the caller intact.
func TestReadsOutgrowingStackKeepEarlierResults(t *testing.T) {
	fill := pattern(0x21, 16<<10)
	big := pattern(0x7A, 32<<10)
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		outerImg.RegisterECall("grow", func(env *sdk.Env, args []byte) ([]byte, error) {
			heap := env.E.Image().HeapBase()
			if err := env.Write(heap, fill); err != nil {
				return nil, err
			}
			var reads [][]byte
			for n := 16; n <= len(fill); n *= 4 {
				b, err := env.Read(heap, n)
				if err != nil {
					return nil, err
				}
				reads = append(reads, b)
				if n == 256 {
					out, err := env.NECall(env.E.Inners()[0], "readback", big)
					if err != nil {
						return nil, err
					}
					expectArgs(t, "the n_ecall's Read result", out, big)
				}
			}
			for _, b := range reads {
				expectArgs(t, "an earlier Read result", b, fill[:len(b)])
			}
			return reads[0], nil
		})
	})
	out, err := sr.outer.ECall("grow", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, fill[:16]) {
		t.Fatalf("returned Read result %x, want %x", out, fill[:16])
	}
	sr.expectEmpty(t, "the growing reads")
}

// TestFailedReadLeavesStackTop: a Read that fails releases its
// reservation, so the stack's top is where it was, and the call's earlier
// and later Reads are intact.
func TestFailedReadLeavesStackTop(t *testing.T) {
	var sr *stackRig
	sr = newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		outerImg.RegisterECall("fail", func(env *sdk.Env, args []byte) ([]byte, error) {
			heap := env.E.Image().HeapBase()
			if err := env.Write(heap, pattern(0x33, 64)); err != nil {
				return nil, err
			}
			first, err := env.Read(heap, 64)
			if err != nil {
				return nil, err
			}
			before, _ := sdk.Staged(sr.host)
			// The page after the image is mapped by no one, so the kernel
			// cannot repair the #PF.
			bad, err := env.Read(env.E.Image().Base+isa.VAddr(env.E.Image().Size()), 4096)
			if err == nil {
				t.Errorf("Read past the image succeeded with %d bytes", len(bad))
			} else if bad != nil {
				t.Errorf("failed Read returned %d bytes", len(bad))
			}
			if after, _ := sdk.Staged(sr.host); after != before {
				t.Errorf("a failed Read moved the stack's top from %d to %d", before, after)
			}
			second, err := env.Read(heap, 64)
			if err != nil {
				return nil, err
			}
			if after, _ := sdk.Staged(sr.host); after != before+64 {
				t.Errorf("a 64-byte Read moved the stack's top from %d to %d", before, after)
			}
			expectArgs(t, "the Read before the failure", first, pattern(0x33, 64))
			expectArgs(t, "the Read after the failure", second, pattern(0x33, 64))
			return nil, nil
		})
	})
	if _, err := sr.outer.ECall("fail", pattern(0x44, 100)); err != nil {
		t.Fatal(err)
	}
	sr.expectEmpty(t, "a failed Read")
}

// TestLargeReadDoesNotPinItsStack: each core serves a call that makes one
// 1 MiB Read of untrusted memory. Once the calls return, no core keeps a
// staging buffer larger than sdk.MaxKeptStack, the kept result reads
// zeros, and later calls work from fresh buffers.
func TestLargeReadDoesNotPinItsStack(t *testing.T) {
	const big = 1 << 20
	var (
		src  isa.VAddr
		kept [][]byte
	)
	sr := newStackRig(t, func(innerImg, outerImg *sdk.Image) {
		outerImg.RegisterECall("read_big", func(env *sdk.Env, args []byte) ([]byte, error) {
			if err := env.Write(src, args); err != nil {
				return nil, err
			}
			b, err := env.Read(src, big)
			if err != nil {
				return nil, err
			}
			expectArgs(t, "the 1 MiB Read's head", b[:len(args)], args)
			kept = append(kept, b)
			return nil, nil
		})
	})
	var err error
	if src, err = sr.host.Proc.Mmap(big, isa.PermRW); err != nil {
		t.Fatal(err)
	}
	for i := range sr.m.Cores() {
		if _, err := sr.outer.ECall("read_big", pattern(byte(0x10*i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if n := sdk.LargestStack(sr.host); n > sdk.MaxKeptStack {
		t.Errorf("a core keeps a %d-byte staging buffer after its 1 MiB Read, want at most %d", n, sdk.MaxKeptStack)
	}
	for i, b := range kept {
		if !bytes.Equal(b[:64], make([]byte, 64)) {
			t.Errorf("kept 1 MiB Read result %d reads %x..., want zeros", i, head(b))
		}
	}
	sr.expectEmpty(t, "the 1 MiB Reads")
	sr.expectCheck(t, "the 1 MiB Reads")
}
