package sdk_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// testRig bundles a nested-enabled machine, kernel and host.
type testRig struct {
	m    *sgx.Machine
	k    *kos.Kernel
	host *sdk.Host
}

func newRig(t *testing.T, nesting sgx.NestingConfig) *testRig {
	t.Helper()
	cfg := sgx.SmallConfig()
	cfg.Nesting = nesting
	m := sgx.MustNew(cfg)
	k := kos.New(m)
	return &testRig{m: m, k: k, host: sdk.NewHost(k)}
}

// sweepLLC evicts every line the LLC holds, writing dirty ones back through
// the MEE: core 0 reads, out of enclave mode, untrusted memory twice the
// LLC's size, after which each set's LRU ways hold only the sweep's clean
// lines. It is the cache pressure any host code can apply.
func sweepLLC(t *testing.T, r *testRig) {
	t.Helper()
	n := 2 * sgx.SmallConfig().LLC.SizeBytes
	buf, err := r.host.Proc.Mmap(n, isa.PermR)
	if err != nil {
		t.Fatal(err)
	}
	c := r.m.Core(0)
	if err := r.k.Schedule(c, r.host.Proc); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < n; off += isa.PageSize {
		if _, err := c.Read(buf+isa.VAddr(off), isa.PageSize); err != nil {
			t.Fatal(err)
		}
	}
}

func mustLoad(t *testing.T, h *sdk.Host, si *sdk.SignedImage) *sdk.Enclave {
	t.Helper()
	e, err := h.Load(si)
	if err != nil {
		t.Fatalf("load %s: %v", si.Image.Name, err)
	}
	return e
}

// signPair builds and signs an inner/outer image pair with mutual expected
// measurements, the precondition for NASSO.
func signPair(t *testing.T, inner, outer *sdk.Image) (*sdk.SignedImage, *sdk.SignedImage) {
	t.Helper()
	innerAuthor := measure.MustNewAuthor()
	outerAuthor := measure.MustNewAuthor()
	si := inner.Sign(innerAuthor, []measure.Digest{outer.Measure()}, nil)
	so := outer.Sign(outerAuthor, nil, []measure.Digest{inner.Measure()})
	return si, so
}

func TestECallRoundTrip(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	img.RegisterECall("echo", func(env *sdk.Env, args []byte) ([]byte, error) {
		return append([]byte("echo:"), args...), nil
	})
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	out, err := e.ECall("echo", []byte("hi"))
	if err != nil {
		t.Fatalf("ecall: %v", err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("ecall returned %q", out)
	}
	if got := r.m.Rec.Get(trace.EvECall); got != 1 {
		t.Fatalf("ecall counter = %d, want 1", got)
	}
}

func TestEnclaveErrorsAreWrapped(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("failer", 0x1000_0000, sdk.DefaultLayout())
	sentinel := errors.New("trusted function failed")
	img.RegisterECall("boom", func(env *sdk.Env, args []byte) ([]byte, error) {
		return nil, sentinel
	})
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	_, err := e.ECall("boom", nil)
	var ee *sdk.EnclaveError
	if !errors.As(err, &ee) {
		t.Fatalf("error not wrapped as EnclaveError: %v", err)
	}
	if ee.Enclave != "failer" || ee.Call != "boom" || !errors.Is(err, sentinel) {
		t.Fatalf("wrapped error fields: %+v", ee)
	}
}

func TestEnclaveMemoryIsolationFromHost(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	secret := []byte("top-secret-value-0123456789abcdef")
	var addr isa.VAddr
	img.RegisterECall("stash", func(env *sdk.Env, args []byte) ([]byte, error) {
		a, err := env.Malloc(len(secret))
		if err != nil {
			return nil, err
		}
		addr = a
		if err := env.Write(a, secret); err != nil {
			return nil, err
		}
		got, err := env.Read(a, len(secret))
		if err != nil {
			return nil, err
		}
		return got, nil
	})
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	got, err := e.ECall("stash", nil)
	if err != nil {
		t.Fatalf("stash: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("in-enclave read back %q, want %q", got, secret)
	}

	// A non-enclave read of the same virtual address gets abort-page 0xFF.
	c := r.m.Core(0)
	if err := r.k.Schedule(c, r.host.Proc); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	leak, err := c.Read(addr, len(secret))
	if err != nil {
		t.Fatalf("host read: %v", err)
	}
	if bytes.Contains(leak, secret[:8]) {
		t.Fatalf("host read leaked enclave secret: %q", leak)
	}
	for i, b := range leak {
		if b != 0xFF {
			t.Fatalf("host read byte %d = %#x, want abort-page 0xFF", i, b)
		}
	}

	// A host write is silently dropped.
	if err := c.Write(addr, []byte("overwrite-attempt")); err != nil {
		t.Fatalf("host write: %v", err)
	}
	got2, err := e.ECall("stash_read", nil)
	if err == nil {
		_ = got2 // stash_read not registered; expected error
		t.Fatalf("unexpected success for unregistered ecall")
	}
}

func TestSecretIsCiphertextInDRAM(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	secret := []byte("plaintext-never-in-dram-ABCDEFGH")
	var addr isa.VAddr
	img.RegisterECall("stash", func(env *sdk.Env, args []byte) ([]byte, error) {
		a, err := env.Malloc(len(secret))
		if err != nil {
			return nil, err
		}
		addr = a
		return nil, env.Write(a, secret)
	})
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	if _, err := e.ECall("stash", nil); err != nil {
		t.Fatalf("stash: %v", err)
	}
	// Force writeback so the line reaches DRAM, then probe the bus.
	sweepLLC(t, r)
	pa, ok := r.host.Proc.PageTable().Translate(addr)
	if !ok {
		t.Fatalf("no translation for heap page")
	}
	raw := r.m.DRAM.Read(pa, len(secret))
	if bytes.Equal(raw, make([]byte, len(secret))) {
		t.Fatalf("the secret's line never reached DRAM")
	}
	if bytes.Contains(raw, secret[:8]) {
		t.Fatalf("physical DRAM holds enclave plaintext")
	}
}

func TestNestedCallAndAsymmetricAccess(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())

	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	innerImg := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())

	outerSecretData := []byte("outer-shared-buffer-for-inners!!")
	var outerAddr, innerAddr isa.VAddr
	innerSecret := []byte("inner-top-secret-per-user-data!!")

	outerImg.RegisterNOCall("lib_fn", func(env *sdk.Env, args []byte) ([]byte, error) {
		return append([]byte("lib:"), args...), nil
	})
	outerImg.RegisterECall("outer_main", func(env *sdk.Env, args []byte) ([]byte, error) {
		a, err := env.Malloc(len(outerSecretData))
		if err != nil {
			return nil, err
		}
		outerAddr = a
		if err := env.Write(a, outerSecretData); err != nil {
			return nil, err
		}
		// Call into the inner enclave by name.
		inner := env.E.Inners()[0]
		return env.NECall(inner, "inner_main", args)
	})
	outerImg.RegisterECall("outer_spy", func(env *sdk.Env, args []byte) ([]byte, error) {
		// The outer enclave attempts to read the inner enclave's memory:
		// must observe abort-page 0xFF, never the secret.
		return env.Read(innerAddr, len(innerSecret))
	})

	innerImg.RegisterECall("inner_main", func(env *sdk.Env, args []byte) ([]byte, error) {
		a, err := env.Malloc(len(innerSecret))
		if err != nil {
			return nil, err
		}
		innerAddr = a
		if err := env.Write(a, innerSecret); err != nil {
			return nil, err
		}
		// Asymmetric permission: the inner enclave reads the outer
		// enclave's memory directly.
		fromOuter, err := env.Read(outerAddr, len(outerSecretData))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(fromOuter, outerSecretData) {
			t.Errorf("inner read of outer memory = %q, want %q", fromOuter, outerSecretData)
		}
		// And calls an outer library function via n_ocall.
		return env.NOCall("lib_fn", args)
	})

	si, so := signPair(t, innerImg, outerImg)
	outer := mustLoad(t, r.host, so)
	inner := mustLoad(t, r.host, si)
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatalf("associate: %v", err)
	}

	out, err := outer.ECall("outer_main", []byte("x"))
	if err != nil {
		t.Fatalf("outer_main: %v", err)
	}
	if string(out) != "lib:x" {
		t.Fatalf("nested call chain returned %q", out)
	}

	spy, err := outer.ECall("outer_spy", nil)
	if err != nil {
		t.Fatalf("outer_spy: %v", err)
	}
	if bytes.Contains(spy, innerSecret[:8]) {
		t.Fatalf("outer enclave read inner secret: %q", spy)
	}
	for i, b := range spy {
		if b != 0xFF {
			t.Fatalf("outer spy byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestPeerInnerIsolation(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())

	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	user1Img := sdk.NewImage("user1", 0x1000_0000, sdk.DefaultLayout())
	user2Img := sdk.NewImage("user2", 0x3000_0000, sdk.DefaultLayout())

	secret1 := []byte("user1-private-data-AAAAAAAAAAAAA")
	var addr1 isa.VAddr

	user1Img.RegisterECall("stash", func(env *sdk.Env, args []byte) ([]byte, error) {
		a, err := env.Malloc(len(secret1))
		if err != nil {
			return nil, err
		}
		addr1 = a
		return nil, env.Write(a, secret1)
	})
	user2Img.RegisterECall("spy", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Read(addr1, len(secret1))
	})

	outerAuthor := measure.MustNewAuthor()
	innerAuthor := measure.MustNewAuthor()
	so := outerImg.Sign(outerAuthor, nil, []measure.Digest{user1Img.Measure(), user2Img.Measure()})
	s1 := user1Img.Sign(innerAuthor, []measure.Digest{outerImg.Measure()}, nil)
	s2 := user2Img.Sign(innerAuthor, []measure.Digest{outerImg.Measure()}, nil)

	outer := mustLoad(t, r.host, so)
	u1 := mustLoad(t, r.host, s1)
	u2 := mustLoad(t, r.host, s2)
	if err := r.host.Associate(u1, outer); err != nil {
		t.Fatalf("associate u1: %v", err)
	}
	if err := r.host.Associate(u2, outer); err != nil {
		t.Fatalf("associate u2: %v", err)
	}

	if _, err := u1.ECall("stash", nil); err != nil {
		t.Fatalf("stash: %v", err)
	}
	spy, err := u2.ECall("spy", nil)
	if err != nil {
		t.Fatalf("spy: %v", err)
	}
	if bytes.Contains(spy, secret1[:8]) {
		t.Fatalf("peer inner enclave read sibling's secret")
	}
	for i, b := range spy {
		if b != 0xFF {
			t.Fatalf("peer spy byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestNASSORejectsUnauthorizedPairing(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	evilImg := sdk.NewImage("evil", 0x1000_0000, sdk.DefaultLayout())

	// The outer's certificate authorizes a *different* inner; the evil
	// image's certificate claims the outer, but the mutual check fails.
	legitInner := sdk.NewImage("legit", 0x4000_0000, sdk.DefaultLayout())
	so := outerImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{legitInner.Measure()})
	se := evilImg.Sign(measure.MustNewAuthor(), []measure.Digest{outerImg.Measure()}, nil)

	outer := mustLoad(t, r.host, so)
	evil := mustLoad(t, r.host, se)
	err := r.host.Associate(evil, outer)
	if err == nil {
		t.Fatalf("NASSO accepted an unauthorized inner enclave")
	}
	if !strings.Contains(err.Error(), "does not authorize") {
		t.Fatalf("unexpected NASSO error: %v", err)
	}
}

func TestRegisterScrubOnNEEXIT(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	innerImg := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())

	const outerVal = 7
	const innerSecretVal = 0xdeadbeef
	outerImg.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
		env.C.Regs.GPR[0] = outerVal
		inner := env.E.Inners()[0]
		if _, err := env.NECall(inner, "work", nil); err != nil {
			return nil, err
		}
		if got := env.C.Regs.GPR[0]; got != outerVal {
			t.Errorf("after NEEXIT, outer GPR0 = %#x, want %#x (restored)", got, outerVal)
		}
		if env.C.Regs.GPR[1] == innerSecretVal {
			t.Errorf("inner register value leaked across NEEXIT")
		}
		return nil, nil
	})
	innerImg.RegisterECall("work", func(env *sdk.Env, args []byte) ([]byte, error) {
		env.C.Regs.GPR[0] = 42
		env.C.Regs.GPR[1] = innerSecretVal
		return nil, nil
	})

	si, so := signPair(t, innerImg, outerImg)
	outer := mustLoad(t, r.host, so)
	inner := mustLoad(t, r.host, si)
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatalf("associate: %v", err)
	}
	if _, err := outer.ECall("run", nil); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestOCallFromInnerEnclave(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	innerImg := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	innerImg.AllowOCall("host_log")

	outerImg.RegisterECall("run", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "work", nil)
	})
	innerImg.RegisterECall("work", func(env *sdk.Env, args []byte) ([]byte, error) {
		// Paper Figure 5: an inner enclave may exit directly to untrusted
		// code and come back (ocall), preserving the nested context.
		out, err := env.OCall("host_log", []byte("ping"))
		if err != nil {
			return nil, err
		}
		if env.C.Current() != env.E.SECS() || !env.C.CurrentTCS().Ret() {
			t.Errorf("after ocall: in %v, nested %v; want the inner, nested", env.C.Current(), env.C.CurrentTCS().Ret())
		}
		return out, nil
	})

	r.host.RegisterOCall("host_log", func(args []byte) ([]byte, error) {
		return append([]byte("logged:"), args...), nil
	})

	si, so := signPair(t, innerImg, outerImg)
	outer := mustLoad(t, r.host, so)
	inner := mustLoad(t, r.host, si)
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatalf("associate: %v", err)
	}
	out, err := outer.ECall("run", nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if string(out) != "logged:ping" {
		t.Fatalf("ocall chain returned %q", out)
	}
}

func TestNEREPORTCoversAssociations(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	innerImg := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())

	var rep *sgx.NestedReport
	innerImg.RegisterECall("attest", func(env *sdk.Env, args []byte) ([]byte, error) {
		var data [64]byte
		copy(data[:], "channel-binding-nonce")
		var err error
		rep, err = r.m.NEREPORT(env.C, env.E.Outers()[0].SECS().MRENCLAVE, data)
		return nil, err
	})
	outerImg.RegisterECall("verify", func(env *sdk.Env, args []byte) ([]byte, error) {
		return nil, env.VerifyNestedReport(rep)
	})

	si, so := signPair(t, innerImg, outerImg)
	outer := mustLoad(t, r.host, so)
	inner := mustLoad(t, r.host, si)
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatalf("associate: %v", err)
	}
	if _, err := inner.ECall("attest", nil); err != nil {
		t.Fatalf("attest: %v", err)
	}
	if len(rep.OuterMeasurements) != 1 || rep.OuterMeasurements[0] != outer.SECS().MRENCLAVE {
		t.Fatalf("nested report outer measurements = %v", rep.OuterMeasurements)
	}
	if _, err := outer.ECall("verify", nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Tampering with the association list must break the MAC.
	rep.OuterMeasurements[0][0] ^= 1
	if _, err := outer.ECall("verify", nil); err == nil {
		t.Fatalf("tampered nested report verified")
	}
}

// TestEnvReadIntoAllocatesNothing: Env.ReadInto reads what Env.Read reads,
// into the caller's buffer, and allocates nothing. The Read result is
// compared inside the handler, because it is valid only until the call
// returns. Not parallel: it reads the process-wide allocation counter.
func TestEnvReadIntoAllocatesNothing(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	secret := []byte("read-into-target")
	var allocs float64
	img.RegisterECall("read", func(env *sdk.Env, args []byte) ([]byte, error) {
		v := env.E.Image().HeapBase()
		if err := env.Write(v, secret); err != nil {
			return nil, err
		}
		want, err := env.Read(v, len(secret))
		if err != nil {
			return nil, err
		}
		got := make([]byte, len(secret))
		allocs = testing.AllocsPerRun(100, func() {
			if e := env.ReadInto(v, got); e != nil && err == nil {
				err = e
			}
		})
		if !bytes.Equal(got, secret) || !bytes.Equal(want, secret) {
			t.Errorf("ReadInto read %q and Read %q, want %q", got, want, secret)
		}
		return nil, err
	})
	e := mustLoad(t, r.host, img.Sign(measure.MustNewAuthor(), nil, nil))
	if _, err := e.ECall("read", nil); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Env.ReadInto allocates %.0f times, want 0", allocs)
	}
}
