// Package sgx implements the SGX machine simulator: the enclave
// lifecycle instructions (ECREATE/EADD/EEXTEND/EINIT/EREMOVE), enclave
// entry/exit (EENTER/EEXIT/AEX/ERESUME), local attestation (EREPORT/EGETKEY),
// EPC paging (EBLOCK/ETRACK/EWB/ELDU), and — at the heart of everything —
// the TLB-miss access validator.
//
// The paper's change to SGX's access control is "one extra branch in the
// TLB-miss access-validation flow" plus inner-aware ETRACK, so both live
// here, once, and every machine runs them:
//
//   - Machine.Validator: the access-validation flow consulted on TLB misses.
//     New installs Figure6Validator. Until NASSO links an inner to an outer
//     no enclave has an outer, the flow's outer branches are empty, and it
//     makes exactly SGX's Figure-2 checks.
//   - Machine.Tracker: the ETRACK thread-tracking policy that decides which
//     cores need TLB shootdowns when an EPC mapping changes. New installs
//     InnerAwareTracker, the §IV-E policy.
//
// Both fields stay swappable, so tests can plant a broken flow or the
// inner-oblivious BaselineTracker, and the ablation can broadcast. Package
// core adds the new instructions (NASSO, NEENTER/NEEXIT, NEREPORT); NASSO
// links a pair through Machine.AssociateLocked, and EREMOVE unlinks it, so
// the outer-closure cache behind Machine.OuterChain is invalidated only
// here.
package sgx

import (
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nestedenclave/internal/cache"
	"nestedenclave/internal/epc"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/mee"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/tlb"
	"nestedenclave/internal/trace"
)

// Validator is the access-validation flow run during TLB-miss handling.
// Implementations receive the faulting core, the requested virtual address,
// the (untrusted) page-table entry, and the access kind, and return a
// verdict together with the TLB entry to insert when the verdict accepts.
type Validator interface {
	Validate(c *Core, v isa.VAddr, pte pt.PTE, op isa.Access) (tlb.Entry, Verdict)
}

// Path names the branch of the validation flow that decided a walk.
type Path uint8

const (
	// PathBaseline accepts through a check baseline SGX also makes: an
	// untrusted access to unsecure memory, an enclave's own EPC page, or an
	// enclave access to unsecure memory.
	PathBaseline Path = iota
	// PathOuter accepts through the Figure-6 outer-enclave branch (steps
	// ③④⑤): an inner enclave reaching an EPC page of one of its outers.
	PathOuter
	// PathAbort gives the access abort-page semantics: reads return all
	// ones, writes are dropped, execution faults. This is how SGX handles
	// unauthorized accesses to protected memory.
	PathAbort
	// PathFault delivers Verdict.Fault instead (page faults for evicted
	// pages, permission violations).
	PathFault
)

// Verdict is a validator's decision on one translation. The zero Verdict
// accepts on the baseline path.
type Verdict struct {
	Path  Path
	Fault *isa.Fault // set exactly when Path is PathFault
}

// Tracker decides which cores must receive a TLB-shootdown IPI when the
// virtual-to-physical mapping of an EPC page owned by enclave eid changes.
type Tracker interface {
	CoresToShootdown(m *Machine, eid isa.EID) []*Core
}

// Config sizes a machine.
type Config struct {
	Cores int
	Phys  phys.Layout
	LLC   cache.Config
}

// DefaultConfig models the paper's 4-core i7-7700 testbed.
func DefaultConfig() Config {
	return Config{Cores: 4, Phys: phys.DefaultLayout(), LLC: cache.DefaultConfig()}
}

// SmallConfig is a reduced machine (64 MiB DRAM, 32 MiB PRM, 1 MiB LLC) for
// tests that do not depend on the full-size memory system.
func SmallConfig() Config {
	return Config{
		Cores: 4,
		Phys:  phys.Layout{DRAMSize: 64 << 20, PRMBase: 16 << 20, PRMSize: 32 << 20},
		LLC:   cache.Config{SizeBytes: 1 << 20, Ways: 16},
	}
}

// Machine is the simulated SGX-enabled processor package plus DRAM.
type Machine struct {
	// mu guards the shared memory system and machine-global state. The hot
	// data-access path (translate + validate on TLB miss) only *reads*
	// machine-global structures — the EPCM, SECS association lists, and the
	// page tables (each behind its own leaf read-write lock, taken under
	// this one) — so it runs under the read lock and cores proceed in
	// parallel; every instruction that mutates machine state (lifecycle,
	// transitions, paging, NASSO) takes the write lock and so still excludes
	// all accesses, exactly like the old exclusive lock did. Per-core state
	// (TLB, registers, enclave stack) is owned by the one goroutine driving
	// that core; cross-core TLB shootdowns happen under the write lock only.
	// The LLC serializes internally (it is the one mutable structure on the
	// read path).
	mu sync.RWMutex

	DRAM *phys.Memory
	MEE  *mee.Engine
	LLC  *cache.Cache
	EPC  *epc.Manager
	Rec  *trace.Recorder

	Validator Validator
	Tracker   Tracker

	cores     []*Core
	secsByEID map[isa.EID]*SECS
	nextEID   isa.EID

	// assocEpoch versions the machine's enclave-association graph:
	// AssociateLocked and EREMOVE bump it, invalidating the outer-closure
	// caches kept on each SECS (see OuterChain).
	assocEpoch atomic.Uint64

	platformSecret []byte
	// pagingAEAD seals EWB blobs and opens them at ELDU, under the paging
	// key derived from platformSecret.
	pagingAEAD cipher.AEAD

	// pageBuf carries page content through EWB (LLC to seal) and ELDU
	// (open to LLC), both of which hold the write lock.
	pageBuf [isa.PageSize]byte //nescheck:guard mu

	// Version-array state for EPC paging freshness (see paging.go).
	vaSlots    map[uint64]bool
	vaSlotNext uint64
	blobVer    map[blobKey]uint64 // monotonic eviction counter per (owner, vaddr)

	// hostile is the untrusted platform consulted at every hook point
	// (hostile.go); never nil. Set with SetHostile, read without the
	// machine lock.
	hostile Hostile

	// poisoned marks enclaves whose protected memory failed MEE integrity
	// verification (or whose trusted code crashed): entry and resumption
	// are refused with a machine-check fault until the enclave is removed.
	// Guarded by pmu — its own leaf lock, not mu, because the MEE's poison
	// callback fires from inside the cache hierarchy on the read-locked
	// access path, where mu cannot be upgraded.
	pmu      sync.Mutex
	poisoned map[isa.EID]string //nescheck:guard pmu
}

// New builds a machine with the Figure-6 validator and the inner-aware
// tracker installed.
func New(cfg Config) (*Machine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sgx: need at least one core")
	}
	rec := &trace.Recorder{}
	dram, err := phys.New(cfg.Phys)
	if err != nil {
		return nil, err
	}
	eng, err := mee.New(dram)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.LLC, eng, rec)
	if err != nil {
		return nil, err
	}
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("sgx: platform secret: %v", err)
	}
	aead, err := newPagingAEAD(secret)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		DRAM:           dram,
		MEE:            eng,
		LLC:            llc,
		EPC:            epc.NewManager(dram),
		Rec:            rec,
		secsByEID:      make(map[isa.EID]*SECS),
		nextEID:        1,
		platformSecret: secret,
		pagingAEAD:     aead,
		poisoned:       make(map[isa.EID]string),
	}
	// An MEE integrity failure is contained to the enclave owning the
	// tampered line: real hardware drops-and-locks the whole package, but
	// for the robustness story we model the finer-grained machine-check
	// containment (poison the owner, refuse re-entry, let the host EREMOVE
	// and restart it).
	eng.Poison = func(p isa.PAddr) {
		if ent, ok := m.EPC.EntryAt(p); ok && ent.Owner != 0 {
			m.poison(ent.Owner, fmt.Sprintf("MEE integrity failure at %#x", uint64(p)))
		}
	}
	m.Validator = Figure6Validator{}
	m.Tracker = InnerAwareTracker{}
	m.SetHostile(nil)
	for i := 0; i < cfg.Cores; i++ {
		t := tlb.New(rec)
		t.CoreID = i
		m.cores = append(m.cores, &Core{m: m, ID: i, TLB: t})
	}
	return m, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Cores returns the machine's cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Enclave looks up a live enclave by identity.
func (m *Machine) Enclave(eid isa.EID) (*SECS, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.secsByEID[eid]
	return s, ok
}

// ResolveEID looks up an enclave without taking the machine lock. It exists
// for code that already holds it: the nesting instructions inside
// Atomically, and Validator and Tracker implementations; other callers must
// use Enclave.
func (m *Machine) ResolveEID(eid isa.EID) (*SECS, bool) {
	s, ok := m.secsByEID[eid]
	return s, ok
}

// Enclaves returns all live enclaves (for audits and footprint accounting),
// sorted by EID so consumers iterate in a replay-stable order regardless of
// the map's internal layout.
func (m *Machine) Enclaves() []*SECS {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*SECS, 0, len(m.secsByEID))
	for _, s := range m.secsByEID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EID < out[j].EID })
	return out
}

// Core is one logical processor.
type Core struct {
	m  *Machine
	ID int

	// TLB is the core's translation cache.
	TLB *tlb.TLB
	// PT is the currently active address space, installed by the kernel
	// scheduler (CR3). Untrusted.
	PT *pt.Table

	// Regs is the architectural register file visible to the running code.
	Regs Registers

	// inEnclave / cur / curTCS describe the current protection context.
	// Suspended outer frames of nested entries live in the TCS chain
	// (TCS.ret), not on the core, so they survive ocall round trips.
	inEnclave bool
	cur       *SECS
	curTCS    *TCS

	// PFHandler, when set, is invoked for page faults raised by memory
	// accesses (the kernel's fault handler: it can reload evicted EPC pages
	// and retry). Installed by package kos.
	PFHandler func(c *Core, f *isa.Fault) bool
}

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.m }

// InEnclave reports whether the core executes in enclave mode.
func (c *Core) InEnclave() bool { return c.inEnclave }

// Current returns the SECS of the enclave the core is executing, if any.
func (c *Core) Current() *SECS {
	if !c.inEnclave {
		return nil
	}
	return c.cur
}

// CurrentTCS returns the active TCS, if any.
func (c *Core) CurrentTCS() *TCS { return c.curTCS }

// BillEID returns the attribution identity for the core's current execution:
// the EID of the enclave it runs, or trace.NoEID outside enclave mode.
func (c *Core) BillEID() uint64 {
	if c.inEnclave && c.cur != nil {
		return uint64(c.cur.EID)
	}
	return trace.NoEID
}

// payer bills memory-hierarchy work to the core's current execution.
func (c *Core) payer() trace.Payer { return trace.Payer{EID: c.BillEID(), Core: c.ID} }

// NestingDepth returns how many enclave frames are active on the core
// (1 inside a top-level enclave, 2 inside an inner enclave, ...).
func (c *Core) NestingDepth() int {
	if !c.inEnclave {
		return 0
	}
	return 1 + len(c.curTCS.retChainEIDs())
}

// ExecutingEIDs returns the EIDs of every enclave with live context on the
// core: the current enclave and all suspended outer frames. Used by the
// ETRACK thread-tracking policies.
func (c *Core) ExecutingEIDs() []isa.EID {
	if !c.inEnclave || c.cur == nil {
		return nil
	}
	return append([]isa.EID{c.cur.EID}, c.curTCS.retChainEIDs()...)
}
