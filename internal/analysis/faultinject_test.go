package analysis

// The module-level fault-injection proof: plant three bugs in the REAL tree
// via a load-time file overlay (nothing on disk changes) and require that each
// produces exactly one finding, with a correct cross-function trace. This is
// the end-to-end demonstration that the interprocedural rules guard the
// lock-free hot path: a plain copy of the machine's association epoch, the
// host lock held across an ECall reached through a helper, and the kernel
// driver's lock held across the machine's NEENTER reached through a helper.
import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestFaultInjectionProof(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow; run without -short")
	}
	root := mustAbs(t, filepath.Join("..", ".."))
	modPath, err := ModulePathOf(root)
	if err != nil {
		t.Fatal(err)
	}

	overlay := map[string][]byte{
		// Fault 1: the association epoch copied out plainly. Every nested
		// walk loads it lock-free to validate its cached outer closure, and
		// NASSO and EREMOVE bump it; a plain copy is a torn-read race on
		// that hot path.
		"internal/sgx/zz_injected_fault.go": []byte(`package sgx

func (m *Machine) injectedPeek() uint64 {
	e := m.assocEpoch
	return e.Load()
}
`),
		// Fault 2: the host lock held across a domain transition, reached
		// through a helper so the finding needs the call-graph to see it.
		"internal/sdk/zz_injected_fault.go": []byte(`package sdk

func (h *Host) injectedRestore(e *Enclave) {
	_, _ = e.ECall("restore", nil)
}

func (h *Host) injectedHeldCall(e *Enclave) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.injectedRestore(e)
}
`),
		// Fault 3: a module lock held across the nested transition itself,
		// the sgx.Machine instruction, reached through a helper.
		"internal/kos/zz_injected_fault.go": []byte(`package kos

import "nestedenclave/internal/sgx"

func (d *Driver) injectedEnter(c *sgx.Core, s *sgx.SECS) {
	_ = d.k.m.NEENTER(c, s, s.Base)
}

func (d *Driver) injectedHeldEnter(c *sgx.Core, s *sgx.SECS) {
	d.pager.Lock()
	defer d.pager.Unlock()
	d.injectedEnter(c, s)
}
`),
	}

	pkgs, err := LoadTreeOverlay(root, modPath, overlay)
	if err != nil {
		t.Fatalf("overlay load: %v", err)
	}
	res := Analyze(pkgs, []*Analyzer{AtomicSafety, LockGraph}, Options{})

	byFamily := map[string][]Finding{}
	for _, f := range res.Findings {
		byFamily[ruleFamily(f.Rule)] = append(byFamily[ruleFamily(f.Rule)], f)
	}

	cases := []struct {
		family string
		file   string
		msgRE  string
	}{
		{
			family: "atomicsafety",
			file:   "internal/sgx/zz_injected_fault.go",
			// The cite must point at the real module's atomic use of the
			// same field — the cross-function half of the trace.
			msgRE: `sgx\.Machine\.assocEpoch is a sync/atomic value but is copied out plainly here.*; sgx\.Machine\..* it atomically at sgx/`,
		},
		{
			family: "lockgraph",
			file:   "internal/sdk/zz_injected_fault.go",
			msgRE:  `sdk\.Host\.mu held across domain transition sdk\.Enclave\.ECall \(via sdk\.Host\.injectedRestore -> sdk\.Enclave\.ECall\)`,
		},
		{
			family: "lockgraph",
			file:   "internal/kos/zz_injected_fault.go",
			msgRE:  `kos\.Driver\.pager held across domain transition sgx\.Machine\.NEENTER \(via kos\.Driver\.injectedEnter -> sgx\.Machine\.NEENTER\)`,
		},
	}
	// Each injected fault yields exactly one finding, and the real tree none.
	perFamily := map[string]int{}
	for _, c := range cases {
		perFamily[c.family]++
	}
	for family, n := range perFamily {
		if got := len(byFamily[family]); got != n {
			t.Errorf("%s: want exactly %d findings, one per injected fault, got %d: %v", family, n, got, byFamily[family])
		}
	}
	for _, c := range cases {
		var fs []Finding
		for _, f := range byFamily[c.family] {
			if strings.HasSuffix(filepath.ToSlash(f.Pos.Filename), c.file) {
				fs = append(fs, f)
			}
		}
		if len(fs) != 1 {
			t.Errorf("%s: want exactly 1 finding anchored in %s, got %d: %v", c.family, c.file, len(fs), byFamily[c.family])
			continue
		}
		if !regexp.MustCompile(c.msgRE).MatchString(fs[0].Msg) {
			t.Errorf("%s: message %q does not match %q", c.family, fs[0].Msg, c.msgRE)
		}
	}
}
