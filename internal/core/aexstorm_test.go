package core_test

import (
	"fmt"
	"sync"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// These tests verify AEX/ERESUME orderliness under interrupt storms fired at
// every step of a nested NEENTER/NEEXIT chain: the suspended-frame stack must
// survive arbitrary preemption at any depth, registers must be scrubbed
// while the core is outside the enclave and restored exactly on resume, and
// the machine's structural invariants must hold throughout. Run with -race:
// the concurrent variant storms several chains at once.

// storm interrupts the current enclave context n times with real AEX +
// ERESUME round trips, planting a register secret before each interrupt and
// checking the scrub/restore contract around it.
func storm(env *sdk.Env, n int) error {
	c := env.C
	m := c.Machine()
	for i := 0; i < n; i++ {
		secret := 0xDEAD_0000_0000_0000 | uint64(i+1)
		c.Regs.GPR[3] = secret
		t := c.CurrentTCS()
		cur, nested := nestedFrames(c)
		if err := m.AEX(c); err != nil {
			return fmt.Errorf("AEX %d: %w", i, err)
		}
		if c.InEnclave() {
			return fmt.Errorf("interrupt %d: core still in enclave mode", i)
		}
		if !c.Regs.IsZero() {
			return fmt.Errorf("interrupt %d: registers not scrubbed on AEX (secret leaked)", i)
		}
		if err := m.EResume(c, t); err != nil {
			return fmt.Errorf("ERESUME %d: %w", i, err)
		}
		if got := c.Regs.GPR[3]; got != secret {
			return fmt.Errorf("interrupt %d: register not restored (got %#x)", i, got)
		}
		if gotCur, gotNested := nestedFrames(c); gotCur != cur || gotNested != nested {
			return fmt.Errorf("interrupt %d: context (%v, nested %v) -> (%v, nested %v)", i, cur, nested, gotCur, gotNested)
		}
		c.Regs.GPR[3] = 0
	}
	return nil
}

// buildStormPair wires an inner/outer pair whose every trusted function
// storms the core before, between, and after each nested transition.
func buildStormPair(name string, innerBase, outerBase isa.VAddr, perStep int) (*sdk.Image, *sdk.Image) {
	innerImg := sdk.NewImage(name+"-inner", innerBase, sdk.DefaultLayout())
	outerImg := sdk.NewImage(name+"-outer", outerBase, sdk.DefaultLayout())

	// Depth-2 work: interrupted while the outer frame sits suspended.
	innerImg.RegisterECall("work", func(env *sdk.Env, args []byte) ([]byte, error) {
		if err := storm(env, perStep); err != nil {
			return nil, err
		}
		return append([]byte("inner:"), args...), nil
	})
	// Downward chain: host -> outer -> (NEENTER) inner.
	outerImg.RegisterECall("drive", func(env *sdk.Env, args []byte) ([]byte, error) {
		if err := storm(env, perStep); err != nil {
			return nil, err
		}
		inners := env.E.Inners()
		if len(inners) != 1 {
			return nil, fmt.Errorf("want 1 inner, have %d", len(inners))
		}
		out, err := env.NECall(inners[0], "work", args)
		if err != nil {
			return nil, err
		}
		// Back in the outer frame after NEEXIT: storm again to interrupt the
		// restored context.
		if err := storm(env, perStep); err != nil {
			return nil, err
		}
		return append([]byte("outer:"), out...), nil
	})
	// Upward chain: host -> inner -> (NEEXIT/NEENTER) outer service.
	outerImg.RegisterNOCall("svc", func(env *sdk.Env, args []byte) ([]byte, error) {
		if err := storm(env, perStep); err != nil {
			return nil, err
		}
		return append([]byte("svc:"), args...), nil
	})
	innerImg.RegisterECall("up", func(env *sdk.Env, args []byte) ([]byte, error) {
		if err := storm(env, perStep); err != nil {
			return nil, err
		}
		out, err := env.NOCall("svc", args)
		if err != nil {
			return nil, err
		}
		if err := storm(env, perStep); err != nil {
			return nil, err
		}
		return out, nil
	})
	return innerImg, outerImg
}

func loadStormPair(t *testing.T, r *rig, name string, innerBase, outerBase isa.VAddr, perStep int) (inner, outer *sdk.Enclave) {
	t.Helper()
	innerImg, outerImg := buildStormPair(name, innerBase, outerBase, perStep)
	si := innerImg.Sign(measure.MustNewAuthor(), []measure.Digest{outerImg.Measure()}, nil)
	so := outerImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	var err error
	if outer, err = r.host.Load(so); err != nil {
		t.Fatal(err)
	}
	if inner, err = r.host.Load(si); err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}
	return inner, outer
}

func TestAEXStormAcrossNestedChain(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadStormPair(t, r, "storm", 0x1000_0000, 0x2000_0000, 5)

	aex0 := r.m.Rec.Get(trace.EvAEX)
	for round := 0; round < 3; round++ {
		out, err := outer.ECall("drive", []byte("ping"))
		if err != nil {
			t.Fatalf("round %d downward: %v", round, err)
		}
		if string(out) != "outer:inner:ping" {
			t.Fatalf("round %d downward payload: %q", round, out)
		}
		out, err = inner.ECall("up", []byte("pong"))
		if err != nil {
			t.Fatalf("round %d upward: %v", round, err)
		}
		if string(out) != "svc:pong" {
			t.Fatalf("round %d upward payload: %q", round, out)
		}
		if v := r.m.AuditInvariants(); len(v) > 0 {
			t.Fatalf("round %d: invariants violated mid-soak: %v", round, v)
		}
	}
	// 3 storm sites of 5 on the downward chain, 3 sites of 5 on the upward
	// chain, 3 rounds each: the storms must have been real AEXes.
	if got := r.m.Rec.Get(trace.EvAEX) - aex0; got < 3*(3*5+3*5) {
		t.Fatalf("only %d AEX events recorded; storms did not fire", got)
	}
}

// TestAEXStormConcurrentChains drives several stormy nested chains on
// different cores at once; meaningful under -race, and checks that per-core
// suspended-frame state never bleeds across cores.
func TestAEXStormConcurrentChains(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	type pair struct{ inner, outer *sdk.Enclave }
	pairs := make([]pair, 3)
	for i := range pairs {
		base := isa.VAddr(0x1000_0000 * (i + 1))
		in, out := loadStormPair(t, r, fmt.Sprintf("storm%d", i), base, base+0x800_0000, 3)
		pairs[i] = pair{in, out}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(pairs))
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, p pair) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				out, err := p.outer.ECall("drive", []byte{byte(i)})
				if err != nil {
					errCh <- fmt.Errorf("pair %d round %d: %w", i, round, err)
					return
				}
				if string(out) != "outer:inner:"+string([]byte{byte(i)}) {
					errCh <- fmt.Errorf("pair %d round %d: payload %q", i, round, out)
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if v := r.m.AuditInvariants(); len(v) > 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}
