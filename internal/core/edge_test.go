package core_test

import (
	"testing"

	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// Edge cases of the nested transition machinery.

func TestAEXFromInnerEnclavePreservesNestedContext(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)

	outer.Image().RegisterECall("nest_and_fault", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "faulty", nil)
	})
	inner.Image().RegisterECall("faulty", func(env *sdk.Env, args []byte) ([]byte, error) {
		c := env.C
		m := r.m
		if cur, nested := nestedFrames(c); cur != inner.SECS() || !nested {
			t.Errorf("before AEX: in %v, nested %v", cur, nested)
		}
		tcs := c.CurrentTCS()
		c.Regs.GPR[5] = 0xABCD
		// A hardware interrupt arrives: asynchronous exit.
		if err := m.AEX(c); err != nil {
			return nil, err
		}
		if c.InEnclave() {
			t.Error("still in enclave after AEX")
		}
		// The kernel handles it; ERESUME restores the INNER context with
		// the suspended outer frame intact.
		if err := m.EResume(c, tcs); err != nil {
			return nil, err
		}
		if cur, nested := nestedFrames(c); cur != inner.SECS() || !nested {
			t.Errorf("after ERESUME: in %v, nested %v", cur, nested)
		}
		if c.Regs.GPR[5] != 0xABCD {
			t.Errorf("registers not restored: GPR5=%#x", c.Regs.GPR[5])
		}
		return []byte("survived"), nil
	})
	out, err := outer.ECall("nest_and_fault", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "survived" {
		t.Fatalf("returned %q", out)
	}
}

func TestReleaseExitFromNestedContextRejected(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)
	outer.Image().RegisterECall("drive", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "try_exit", nil)
	})
	inner.Image().RegisterECall("try_exit", func(env *sdk.Env, args []byte) ([]byte, error) {
		// A release EEXIT from a NEENTERed context would strand the
		// suspended outer frame: #GP. The core stays in the inner enclave.
		if err := r.m.EExit(env.C, true); err == nil {
			t.Error("release EEXIT from nested context accepted")
		}
		if cur, nested := nestedFrames(env.C); cur != inner.SECS() || !nested {
			t.Errorf("after rejected exit: in %v, nested %v", cur, nested)
		}
		return nil, nil
	})
	if _, err := outer.ECall("drive", nil); err != nil {
		t.Fatal(err)
	}
}

func TestNEREPORTOutsideEnclaveRejected(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	c := r.m.Core(0)
	if _, err := r.m.NEREPORT(c, measure.Digest{}, [64]byte{}); err == nil {
		t.Fatal("NEREPORT outside enclave accepted")
	}
}

func TestVerifyNestedReportWrongTarget(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)
	var rep *sgx.NestedReport
	inner.Image().RegisterECall("report", func(env *sdk.Env, args []byte) ([]byte, error) {
		var err error
		rep, err = r.m.NEREPORT(env.C, outer.SECS().MRENCLAVE, [64]byte{})
		return nil, err
	})
	// An unrelated enclave tries to verify a report addressed to the outer.
	strangerImg := sdk.NewImage("stranger", 0x6000_0000, sdk.DefaultLayout())
	strangerImg.RegisterECall("verify", func(env *sdk.Env, args []byte) ([]byte, error) {
		return nil, r.m.VerifyNestedReport(env.C, rep)
	})
	stranger, err := r.host.Load(strangerImg.Sign(measure.MustNewAuthor(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inner.ECall("report", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := stranger.ECall("verify", nil); err == nil {
		t.Fatal("wrong-target verification succeeded")
	}
	// Verification outside enclave mode fails too.
	if err := r.m.VerifyNestedReport(r.m.Core(0), rep); err == nil {
		t.Fatal("verification outside enclave accepted")
	}
}
