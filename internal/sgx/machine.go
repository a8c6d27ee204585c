// Package sgx implements the SGX machine simulator: the enclave
// lifecycle instructions (ECREATE/EADD/EEXTEND/EINIT/EREMOVE), enclave
// entry/exit (EENTER/EEXIT/AEX/ERESUME), local attestation (EREPORT/EGETKEY),
// EPC paging (EBLOCK/ETRACK/EWB/ELDU), the TLB-miss access validator, and
// the paper's nested-enclave extension (§IV), which lives here with the
// instructions it extends and which every machine runs:
//
//   - SECS fields: SECS.Nested holds the Figure-3 outer/inner association
//     lists (secs.go).
//   - Figure-6 branch: Machine.Validator, consulted on TLB misses, is
//     Figure6Validator. Until NASSO links an inner to an outer no enclave
//     has an outer, the flow's outer branches are empty, and it makes
//     exactly SGX's Figure-2 checks (validate.go).
//   - Inner-aware ETRACK: Machine.Tracker, which decides the cores a TLB
//     shootdown must reach when an EPC mapping changes, is
//     InnerAwareTracker, the §IV-E policy (validate.go).
//   - Table I's instructions, Machine methods beside the ones they extend:
//     NASSO beside ECREATE and EREMOVE (lifecycle.go), NEENTER/NEEXIT
//     beside EENTER/EEXIT (transition.go), NEREPORT beside EREPORT
//     (report.go). NASSO enforces the nesting model of Config.Nesting. It
//     links a pair and EREMOVE unlinks it; they are the only writers of the
//     association lists, and they invalidate the outer-closure cache behind
//     Machine.OuterChain.
//
// Untrusted code reaches protection state only through instructions (paper
// §II, §VII), so a Machine exports its instructions, the CR3 load among
// them, and a short list beside them: core and enclave lookup, the hostile
// platform, the kernel's EPCM read window (EvictionCandidate, FindRegPage,
// FreeEPCPages, EPCPagesOf), crash containment, the report checks, and the
// invariant audit. The EPC, the LLC and the MEE are private; DRAM stays
// exported, since the threat model hands it to a physical attacker.
// Validator and Tracker stay swappable, so tests can plant a broken flow or
// the inner-oblivious BaselineTracker and the ablation can broadcast; a
// planted flow reads the EPCM through EPCMEntry and the closure through
// OuterChain. TestMachineSurface pins the list.
package sgx

import (
	"crypto/cipher"
	"crypto/rand"
	"fmt"
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
// CoresToShootdown appends them to dst, in core order, and returns the
// extended slice. Caller holds m.mu.
type Tracker interface {
	CoresToShootdown(m *Machine, eid isa.EID, dst []*Core) []*Core
}

// Config sizes a machine and selects its nesting model.
type Config struct {
	Cores int
	Phys  phys.Layout
	LLC   cache.Config
	// Nesting is the nesting model NASSO enforces. Its zero value allows
	// unlimited depth; NestingConfig{MaxDepth: 1} is baseline SGX.
	Nesting NestingConfig
}

// NestingConfig selects the nesting model.
type NestingConfig struct {
	// MaxDepth bounds the nesting depth (2 = the paper's base inner/outer
	// model; 1 = baseline SGX, where NASSO refuses every association).
	// 0 means unlimited (§VIII multi-level nesting).
	MaxDepth int
	// AllowMultipleOuters enables the §VIII lattice extension: an inner
	// enclave may bind to more than one outer enclave.
	AllowMultipleOuters bool
}

// TwoLevel is the paper's base nesting model: two levels, single outer.
func TwoLevel() NestingConfig { return NestingConfig{MaxDepth: 2} }

// DefaultConfig models the paper's 4-core i7-7700 testbed under the
// two-level nesting model.
func DefaultConfig() Config {
	return Config{Cores: 4, Phys: phys.DefaultLayout(), LLC: cache.DefaultConfig(), Nesting: TwoLevel()}
}

// SmallConfig is a reduced machine (64 MiB DRAM, 32 MiB PRM, 1 MiB LLC) for
// tests that do not depend on the full-size memory system, under the
// two-level nesting model.
func SmallConfig() Config {
	return Config{
		Cores:   4,
		Phys:    phys.Layout{DRAMSize: 64 << 20, PRMBase: 16 << 20, PRMSize: 32 << 20},
		LLC:     cache.Config{SizeBytes: 1 << 20, Ways: 16},
		Nesting: TwoLevel(),
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
	Rec  *trace.Recorder

	// epc is the EPC allocator and the EPCM, llc the last-level cache, and
	// mee the memory encryption engine below it: hardware state that only
	// instructions touch.
	epc *epc.Manager
	llc *cache.Cache
	mee *mee.Engine

	Validator Validator
	Tracker   Tracker

	// nesting is the nesting model NASSO enforces; fixed at New.
	nesting NestingConfig

	cores     []*Core
	secsByEID map[isa.EID]*SECS
	nextEID   isa.EID

	// assocEpoch versions the machine's enclave-association graph:
	// NASSO and EREMOVE bump it, invalidating the outer-closure
	// caches kept on each SECS (see OuterChain).
	assocEpoch atomic.Uint64

	platformSecret []byte
	// pagingAEAD seals EWB blobs and opens them at ELDU, under the paging
	// key derived from platformSecret.
	pagingAEAD cipher.AEAD

	// pageBuf carries page content through EWB (LLC to seal) and ELDU
	// (open to LLC), both of which hold the write lock.
	pageBuf [isa.PageSize]byte //nescheck:guard mu
	// nonce and aad carry a blob's GCM nonce and authenticated metadata into
	// EWB's seal and ELDU's open (see sealParams).
	nonce [12]byte    //nescheck:guard mu
	aad   [8 * 5]byte //nescheck:guard mu

	// EPC paging state (see paging.go): the last one-time GCM nonce handed
	// out, and the freshness lane of every evicted (owner, vaddr), its
	// eviction counter and whether its blob is out. EREMOVE of a SECS drops
	// the enclave's lanes (forgetPaging).
	vaSlotNext uint64               //nescheck:guard mu
	blobLanes  map[blobKey]blobLane //nescheck:guard mu

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
		Rec:            rec,
		epc:            epc.NewManager(dram),
		llc:            llc,
		mee:            eng,
		nesting:        cfg.Nesting,
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
		if ent, ok := m.epc.EntryAt(p); ok && ent.Owner != 0 {
			m.poison(ent.Owner, fmt.Sprintf("MEE integrity failure at %#x", uint64(p)))
		}
	}
	m.Validator = Figure6Validator{}
	m.Tracker = InnerAwareTracker{}
	m.SetHostile(nil)
	for i := 0; i < cfg.Cores; i++ {
		t := tlb.New(rec)
		t.CoreID = i
		m.cores = append(m.cores, &Core{m: m, ID: i, tlb: t})
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

// Core is one logical processor.
type Core struct {
	m  *Machine
	ID int

	// tlb is the core's translation cache. Host code changes it only
	// through instructions: the transitions, LoadCR3, INVLPG and the
	// shootdown.
	tlb *tlb.TLB
	// cr3 is the currently active address space, installed by the kernel
	// scheduler through Machine.LoadCR3. Untrusted.
	cr3 *pt.Table

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
	// and retry). Installed by package kos. The fault it is handed may be
	// the core's own demand-fault record (pf), valid only during the call.
	PFHandler func(c *Core, f *isa.Fault) bool

	// pf records the core's latest demand fault ("not present"), so a fault
	// the kernel repairs allocates nothing; repairFaults copies it to the
	// heap when it escapes to the caller. Owned by the goroutine running
	// the core, like the TLB.
	pf isa.Fault
}

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.m }

// AddressSpace returns the address space the last LoadCR3 installed, nil
// before the first.
func (c *Core) AddressSpace() *pt.Table { return c.cr3 }

// TLBEntries returns a copy of the core's cached translations.
func (c *Core) TLBEntries() []tlb.Entry { return c.tlb.Entries() }

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

// billEID returns the attribution identity for the core's current execution:
// the EID of the enclave it runs, or trace.NoEID outside enclave mode.
func (c *Core) billEID() uint64 {
	if c.inEnclave && c.cur != nil {
		return uint64(c.cur.EID)
	}
	return trace.NoEID
}

// payer bills memory-hierarchy work to the core's current execution.
func (c *Core) payer() trace.Payer { return trace.Payer{EID: c.billEID(), Core: c.ID} }

// anyFrame reports whether match holds for an enclave with live context on
// the core, visiting the current enclave first and then each suspended
// outer frame, and stopping at the first match. It builds no slice, so
// ETRACK's thread tracking allocates nothing.
func (c *Core) anyFrame(match func(isa.EID) bool) bool {
	if !c.inEnclave || c.cur == nil {
		return false
	}
	if match(c.cur.EID) {
		return true
	}
	for t := c.curTCS; t != nil && !t.ret.empty(); t = t.ret.tcs {
		if match(t.ret.secs.EID) {
			return true
		}
	}
	return false
}
