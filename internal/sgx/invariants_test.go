package sgx_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

// Property test of the BASELINE validator under random accesses,
// transitions and kernel page-table attacks, audited by
// Machine.AuditInvariants (paper §VII-A). With no enclave associated, the
// audit's fourth, nested invariant has no outer region to check, so this
// pins Costan & Devadas' invariants 1–3: the unmodified SGX behaviour that
// nested enclave claims to leave intact. internal/core/invariants_test.go
// drives the same audit over a nested pair.

func auditBaseline(m *sgx.Machine) error {
	if v := m.AuditInvariants(); len(v) > 0 {
		return fmt.Errorf("%s", v[0])
	}
	return nil
}

func TestBaselineInvariantsUnderRandomOperations(t *testing.T) {
	r := newRig(t) // no NASSO: the Figure-6 flow runs as Figure 2
	e1, t1 := buildEnclave(t, r.k, r.p, 0x100000, 3)
	e2, _ := buildEnclave(t, r.k, r.p, 0x200000, 2)
	unsec, err := r.p.Mmap(2*isa.PageSize, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	c := r.c

	pool := []isa.VAddr{
		0x100000, 0x101000, 0x102800, // e1
		0x200000, 0x201000, // e2
		unsec, unsec + isa.PageSize,
		0x666000, // unmapped
	}
	var frames []isa.PAddr
	for _, eid := range []isa.EID{e1.EID, e2.EID} {
		for _, p := range r.m.EPC.PagesOf(eid)[:2] {
			frames = append(frames, r.m.EPC.AddrOf(p))
		}
	}
	if pa, ok := r.p.PageTable().Translate(unsec); ok {
		frames = append(frames, pa)
	}

	inEnclave := false
	type step struct {
		Kind  uint8
		Addr  uint8
		Frame uint8
		Write bool
	}
	f := func(steps []step) bool {
		for _, st := range steps {
			switch st.Kind % 4 {
			case 0:
				v := pool[int(st.Addr)%len(pool)]
				if st.Write {
					_ = c.Write(v, []byte{1, 2, 3})
				} else {
					_, _ = c.Read(v, 16)
				}
			case 1:
				if !inEnclave {
					if err := r.m.EEnter(c, e1, t1, false); err == nil {
						inEnclave = true
					}
				}
			case 2:
				if inEnclave {
					if err := r.m.EExit(c, true); err == nil {
						inEnclave = false
					}
				}
			case 3:
				v := pool[int(st.Addr)%len(pool)]
				pa := frames[int(st.Frame)%len(frames)]
				r.p.MapFixed(v.PageBase(), pa.PageBase(), isa.PermRW)
			}
			if err := auditBaseline(r.m); err != nil {
				t.Logf("violation after %+v: %v", st, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestReleaseExitWithPendingFrameRejected pins the #GP on EEXIT(release)
// from a nested context — the machine-level contract core.NEEXIT relies on.
func TestTransitionEdgeCases(t *testing.T) {
	r := newRig(t)
	s, tcsV := buildEnclave(t, r.k, r.p, 0x100000, 1)
	r.enter(t, s, tcsV)
	// Resume-exit (ocall) then a *fresh* EENTER on the same TCS by the same
	// thread must be rejected — resumption is the only way back.
	if err := r.m.EExit(r.c, false); err != nil {
		t.Fatal(err)
	}
	if err := r.m.EEnter(r.c, s, tcsV, false); err == nil {
		t.Fatal("fresh EENTER into ocall-suspended TCS accepted")
	}
	if err := r.m.EEnter(r.c, s, tcsV, true); err != nil {
		t.Fatal(err)
	}
	r.exit(t)
}
