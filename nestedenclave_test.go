package nestedenclave_test

import (
	"bytes"
	"strings"
	"testing"

	ne "nestedenclave"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// These tests exercise the public facade end to end, mirroring the README's
// quickstart.

func buildPair(t *testing.T, sys *ne.System) (inner, outer *ne.Enclave, innerImg, outerImg *ne.Image) {
	t.Helper()
	author := ne.NewAuthor()
	outerImg = ne.NewImage("lib", 0x2000_0000, ne.DefaultLayout())
	innerImg = ne.NewImage("app", 0x1000_0000, ne.DefaultLayout())
	outerImg.RegisterNOCall("double", func(env *ne.Env, args []byte) ([]byte, error) {
		return append(args, args...), nil
	})
	outerImg.RegisterECall("dispatch", func(env *ne.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "work", args)
	})
	innerImg.RegisterECall("work", func(env *ne.Env, args []byte) ([]byte, error) {
		return env.NOCall("double", args)
	})
	var err error
	if outer, err = sys.Load(outerImg.Sign(author, nil, []ne.Digest{innerImg.Measure()})); err != nil {
		t.Fatal(err)
	}
	if inner, err = sys.Load(innerImg.Sign(author, []ne.Digest{outerImg.Measure()}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}
	return inner, outer, innerImg, outerImg
}

func TestSystemRoundTrip(t *testing.T) {
	sys := ne.NewSystem()
	_, outer, _, _ := buildPair(t, sys)
	out, err := outer.ECall("dispatch", []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "abab" {
		t.Fatalf("round trip returned %q", out)
	}
	if sys.Recorder().Get(trace.EvNECall) == 0 {
		t.Fatal("no n_ecall recorded")
	}
}

func TestSystemOptions(t *testing.T) {
	// Baseline system: the nesting model allows one level, so no enclave
	// can be associated.
	mc := sgx.DefaultConfig()
	mc.Nesting = ne.NestingConfig{MaxDepth: 1}
	sys := ne.NewSystem(ne.Options{Machine: mc})
	author := ne.NewAuthor()
	img := ne.NewImage("solo", 0x1000_0000, ne.DefaultLayout())
	img2 := ne.NewImage("solo2", 0x2000_0000, ne.DefaultLayout())
	img.RegisterECall("noop", func(env *ne.Env, args []byte) ([]byte, error) { return args, nil })
	e, err := sys.Load(img.Sign(author, nil, []ne.Digest{img2.Measure()}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ECall("noop", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Association must fail on the baseline machine, although both
	// certificates authorize the pair.
	e2, err := sys.Load(img2.Sign(author, []ne.Digest{img.Measure()}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Associate(e2, e); err == nil || !strings.Contains(err.Error(), "maximum nesting depth 1") {
		t.Fatalf("associate on a baseline machine: %v", err)
	}
}

// TestNestingModelReachesNASSO pins that the machine config's nesting model
// is the one NASSO enforces: a three-level chain (c inner of b, b inner of
// a) is refused at its second link under NewSystem()'s two-level default,
// accepted under MaxDepth 3 and under the zero model (unlimited depth), and
// MaxDepth 1 refuses even the first link.
func TestNestingModelReachesNASSO(t *testing.T) {
	withNesting := func(n ne.NestingConfig) *ne.System {
		mc := sgx.DefaultConfig()
		mc.Nesting = n
		return ne.NewSystem(ne.Options{Machine: mc})
	}
	cases := []struct {
		name          string
		sys           *ne.System
		first, second bool // whether each link is accepted
	}{
		{"default", ne.NewSystem(), true, false},
		{"MaxDepth 3", withNesting(ne.NestingConfig{MaxDepth: 3}), true, true},
		{"unlimited", withNesting(ne.NestingConfig{}), true, true},
		{"MaxDepth 1", withNesting(ne.NestingConfig{MaxDepth: 1}), false, false},
	}
	for _, tc := range cases {
		author := ne.NewAuthor()
		imgA := ne.NewImage("a", 0x3000_0000, ne.DefaultLayout())
		imgB := ne.NewImage("b", 0x2000_0000, ne.DefaultLayout())
		imgC := ne.NewImage("c", 0x1000_0000, ne.DefaultLayout())
		load := func(img *ne.Image, outers, inners []ne.Digest) *ne.Enclave {
			e, err := tc.sys.Load(img.Sign(author, outers, inners))
			if err != nil {
				t.Fatalf("%s: load %s: %v", tc.name, img.Name, err)
			}
			return e
		}
		a := load(imgA, nil, []ne.Digest{imgB.Measure()})
		b := load(imgB, []ne.Digest{imgA.Measure()}, []ne.Digest{imgC.Measure()})
		c := load(imgC, []ne.Digest{imgB.Measure()}, nil)
		if err := tc.sys.Associate(b, a); (err == nil) != tc.first {
			t.Errorf("%s: NASSO(b, a) = %v, want accepted %v", tc.name, err, tc.first)
		}
		if err := tc.sys.Associate(c, b); (err == nil) != tc.second {
			t.Errorf("%s: NASSO(c, b) = %v, want accepted %v", tc.name, err, tc.second)
		}
	}
	// A machine config that sets only a nesting model is not the default
	// machine with two levels: it is refused for having no cores.
	if _, err := ne.NewSystemErr(ne.Options{Machine: ne.MachineConfig{Nesting: ne.NestingConfig{MaxDepth: 3}}}); err == nil {
		t.Error("a config with a nesting model and no cores booted")
	}
}

func TestQuoteFlowThroughFacade(t *testing.T) {
	sys := ne.NewSystem()
	inner, outer, innerImg, _ := buildPair(t, sys)
	qs, err := sys.NewQuotingService()
	if err != nil {
		t.Fatal(err)
	}
	var quote *ne.Quote
	innerImg.RegisterECall("attest", func(env *ne.Env, args []byte) ([]byte, error) {
		rep, err := sys.Machine.NEREPORT(env.C, qs.Measurement(), [64]byte{1})
		if err != nil {
			return nil, err
		}
		quote, err = qs.MakeQuote(rep)
		return nil, err
	})
	if _, err := inner.ECall("attest", nil); err != nil {
		t.Fatal(err)
	}
	err = ne.VerifyQuote(qs.PlatformKey(), quote, ne.Expectation{
		Enclave: inner.SECS().MRENCLAVE,
		Outers:  []ne.Digest{outer.SECS().MRENCLAVE},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHostCannotReadEnclaveHeap(t *testing.T) {
	sys := ne.NewSystem()
	inner, _, innerImg, _ := buildPair(t, sys)
	var addr uint64
	innerImg.RegisterECall("stash", func(env *ne.Env, args []byte) ([]byte, error) {
		a, err := env.Malloc(len(args))
		if err != nil {
			return nil, err
		}
		addr = uint64(a)
		return nil, env.Write(a, args)
	})
	secret := []byte("facade-level-secret")
	if _, err := inner.ECall("stash", secret); err != nil {
		t.Fatal(err)
	}
	c := sys.Machine.Core(0)
	if err := sys.Kernel.Schedule(c, sys.Host.Proc); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(isa.VAddr(addr), len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(got, secret[:4]) {
		t.Fatal("host read enclave heap")
	}
}
