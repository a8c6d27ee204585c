package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/tlb"
)

// This file property-tests the paper's §VII-A security invariants: after
// ANY sequence of enclave transitions, memory accesses, kernel page-table
// attacks, and page evictions, every TLB in the machine satisfies:
//
//  1. Out of enclave mode, no TLB entry maps a PRM physical page.
//  2. In enclave mode, a vaddr outside the enclave's ELRANGE (and outside
//     every associated outer's ELRANGE) never maps to PRM.
//  3. In enclave mode, a vaddr inside ELRANGE maps only through an EPCM
//     entry owned by this enclave and recorded at exactly this vaddr.
//  4. (nested) In enclave mode, a vaddr inside an outer enclave's ELRANGE
//     maps only through an EPCM entry owned by that outer and recorded at
//     exactly this vaddr.
//
// The auditor is sgx.Machine.AuditInvariants; this file drives it over a
// nested pair, and pins that it is nested-aware.

// auditInvariants runs the machine's own four-invariant audit and returns
// its first finding.
func auditInvariants(m *sgx.Machine) error {
	if v := m.AuditInvariants(); len(v) > 0 {
		return errors.New(v[0])
	}
	return nil
}

// fuzzStep is one randomized operation.
type fuzzStep struct {
	Kind  uint8 // %5: 0 access, 1 transition-up, 2 transition-down, 3 remap, 4 evict
	Addr  uint8 // selects a target address from the pool
	Frame uint8 // selects a victim frame for remaps
	Write bool
}

func TestSecurityInvariantsUnderRandomOperations(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	innerImg := sdk.NewImage("inner", 0x1000_0000, sdk.DefaultLayout())
	outerImg := sdk.NewImage("outer", 0x2000_0000, sdk.DefaultLayout())
	si := innerImg.Sign(measure.MustNewAuthor(), []measure.Digest{outerImg.Measure()}, nil)
	so := outerImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	outer, err := r.host.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := r.host.Load(si)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}
	unsec, err := r.host.Proc.Mmap(4*isa.PageSize, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	c := r.m.Core(0)
	if err := r.k.Schedule(c, r.host.Proc); err != nil {
		t.Fatal(err)
	}

	// Address pool: enclave heaps, code, TCS pages, unsecure, unmapped.
	pool := []isa.VAddr{
		innerImg.HeapBase(), innerImg.HeapBase() + 0x1800, innerImg.Base,
		outerImg.HeapBase(), outerImg.HeapBase() + 0x2300, outerImg.Base,
		unsec, unsec + isa.PageSize,
		0x7777_0000, // unmapped
	}
	// Frame pool for kernel remap attacks: EPC frames of both enclaves and
	// an unsecure frame.
	framePool := func() []isa.PAddr {
		var out []isa.PAddr
		for _, eid := range []isa.EID{inner.SECS().EID, outer.SECS().EID} {
			pages := r.m.EPCPagesOf(eid)
			slices.Sort(pages) // EPC order, SECS included
			for _, p := range pages[:min(3, len(pages))] {
				out = append(out, epc.PageAddr(r.m.DRAM.Layout(), p))
			}
		}
		if pa, ok := r.host.Proc.PageTable().Translate(unsec); ok {
			out = append(out, pa)
		}
		return out
	}()

	innerTCS := innerImg.HeapBase() + isa.VAddr(innerImg.HeapSize())
	outerTCS := outerImg.HeapBase() + isa.VAddr(outerImg.HeapSize())

	// depth: 0 untrusted, 1 in outer, 2 in inner (nested).
	depth := 0

	f := func(steps []fuzzStep) bool {
		for _, st := range steps {
			switch st.Kind % 5 {
			case 0: // memory access from the current context
				v := pool[int(st.Addr)%len(pool)] + isa.VAddr(st.Frame%4)*8
				if st.Write {
					_ = c.Write(v, []byte{0xAB, 1, 2})
				} else {
					_, _ = c.Read(v, 24)
				}
			case 1: // go one level deeper
				switch depth {
				case 0:
					if err := r.m.EEnter(c, outer.SECS(), outerTCS, false); err == nil {
						depth = 1
					}
				case 1:
					if err := r.m.NEENTER(c, inner.SECS(), innerTCS); err == nil {
						depth = 2
					}
				}
			case 2: // go one level up
				switch depth {
				case 1:
					if err := r.m.EExit(c, true); err == nil {
						depth = 0
					}
				case 2:
					if err := r.m.NEEXIT(c); err == nil {
						depth = 1
					}
				}
			case 3: // kernel remap attack
				v := pool[int(st.Addr)%len(pool)]
				pa := framePool[int(st.Frame)%len(framePool)]
				r.host.Proc.MapFixed(v.PageBase(), pa.PageBase(), isa.PermRW)
			case 4: // evict an enclave page (requires untrusted context on
				// this single-threaded driver, else shootdown would flush
				// our own live context mid-run, which is fine too)
				target := outer
				if st.Addr%2 == 0 {
					target = inner
				}
				hp := target.Image().HeapBase() + isa.VAddr(st.Frame%4)*isa.PageSize
				_ = r.k.Driver.EvictPage(r.host.Proc, target.SECS(), hp)
			}
			if err := auditInvariants(r.m); err != nil {
				t.Logf("violation after step %+v (depth %d): %v", st, depth, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// plantingValidator is the installed flow except at one virtual page, where
// it approves entry as it is: the seam through which a test puts into a TLB
// a translation the flow would never produce.
type plantingValidator struct {
	sgx.Validator
	entry tlb.Entry
}

func (p plantingValidator) Validate(c *sgx.Core, v isa.VAddr, pte pt.PTE, op isa.Access) (tlb.Entry, sgx.Verdict) {
	if v.VPN() == p.entry.VPN {
		return p.entry, sgx.Verdict{}
	}
	return p.Validator.Validate(c, v, pte, op)
}

// TestAuditIsNestedAware runs the machine's audit while an inner enclave,
// entered by NECall, is on the core. The inner's legitimate translation of
// its outer's heap (Figure 6 path C) must audit clean; a planted entry that
// maps an outer-ELRANGE address to the inner's own EPC page must be an
// invariant-4 finding that names the outer as the region owner.
func TestAuditIsNestedAware(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	innerImg := sdk.NewImage("inner", 0x1000_0000, sdk.DefaultLayout())
	outerImg := sdk.NewImage("outer", 0x2000_0000, sdk.DefaultLayout())
	var innerPA isa.PAddr
	var clean, planted []string
	innerImg.RegisterECall("probe", func(env *sdk.Env, _ []byte) ([]byte, error) {
		if _, err := env.Read(outerImg.HeapBase(), 8); err != nil {
			return nil, err
		}
		clean = r.m.AuditInvariants()
		prev := r.m.Validator
		r.m.Validator = plantingValidator{prev, tlb.Entry{VPN: outerImg.Base.VPN(), PPN: innerPA.PPN(), Perms: isa.PermRW}}
		r.m.INVLPG(env.C, outerImg.Base)
		_, err := env.Read(outerImg.Base, 8)
		r.m.Validator = prev
		if err != nil {
			return nil, err
		}
		planted = r.m.AuditInvariants()
		return nil, nil
	})
	outerImg.RegisterECall("enter_inner", func(env *sdk.Env, _ []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "probe", nil)
	})
	si := innerImg.Sign(measure.MustNewAuthor(), []measure.Digest{outerImg.Measure()}, nil)
	so := outerImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	outer, err := r.host.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := r.host.Load(si)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}
	pa, ok := r.host.Proc.PageTable().Translate(innerImg.HeapBase())
	if !ok {
		t.Fatal("inner heap unmapped")
	}
	innerPA = pa
	if _, err := outer.ECall("enter_inner", nil); err != nil {
		t.Fatal(err)
	}

	if len(clean) != 0 {
		t.Errorf("inner's translation of its outer's heap audits dirty: %v", clean)
	}
	want := fmt.Sprintf("to EPC of enclave %d, region owner %d", inner.SECS().EID, outer.SECS().EID)
	if len(planted) != 1 || !strings.HasPrefix(planted[0], "inv4:") || !strings.Contains(planted[0], want) {
		t.Errorf("planted outer-ELRANGE -> inner EPC entry: findings %v, want one inv4 %q", planted, want)
	}
	if v := r.m.AuditInvariants(); len(v) != 0 {
		t.Errorf("audit after the call returned: %v", v)
	}
}
