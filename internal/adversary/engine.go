package adversary

import (
	"fmt"
	"strings"
	"sync"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/pt"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// Engine executes one attack Program. It is the machine's untrusted
// platform (sgx.Hostile, installed with Machine.SetHostile): each decision
// point switches on the program's strategy, lies where the strategy attacks
// (the pager's blob handling and shootdowns, the scheduler's preemption
// point, the IPC router) and stays honest everywhere else, firing attack
// actions until its Ops budget is spent. Every fired action is recorded with
// the simulated cycle it landed on; the resulting transcript is a pure
// function of the Program, so `repro -adversary` replays a run
// byte-identically.
//
// All randomness comes from a splitmix64 stream seeded by Program.Seed and
// drawn in a fixed order at construction time — never from the clock, the
// scheduler, or map iteration (the package is in nescheck's replay-critical
// set).
type Engine struct {
	sgx.Honest

	prog Program
	rec  *trace.Recorder

	mu      sync.Mutex
	fired   int
	actions []Action

	// Seed-derived program parameters, drawn once in New in a fixed order.
	aexDelay   int // in-enclave accesses to let pass before the first preemption
	ipcTrigger int // extra sends beyond the window before an IPC replay fires

	// Blob hoard: every sealed EWB blob the pager ever handed to untrusted
	// memory, in arrival order (arrival order is deterministic; the capture
	// map is only ever indexed, never ranged).
	captures []capture
	firstCap map[capKey]int

	// remap_under_tlb target (SetRemapTarget).
	remapPT    *pt.Table
	remapV     isa.VAddr
	remapPA    isa.PAddr
	remapPerms isa.Perm
	remapSet   bool
	preemptN   int

	// eld_redirect target (SetRedirect).
	redirPA  isa.PAddr
	redirSet bool

	// IPC man-in-the-middle target (SetChannel) and state.
	ipcName  string
	ipcWin   int      // the channel's retransmit window
	held     [][]byte // frames withheld for a shallow reorder
	deepHeld bool     // a frame has been withheld permanently
}

type capKey struct {
	owner isa.EID
	vaddr isa.VAddr
}

type capture struct {
	key  capKey
	blob *sgx.EvictedPage
}

// New validates the program and derives its seed-dependent parameters.
// rec may be nil (actions then carry cycle -1).
func New(p Program, rec *trace.Recorder) (*Engine, error) {
	if _, err := ParseStrategy(string(p.Strategy)); err != nil {
		return nil, err
	}
	if p.Ops <= 0 {
		return nil, fmt.Errorf("adversary: program needs a positive op budget, got %d", p.Ops)
	}
	e := &Engine{prog: p, rec: rec, firstCap: make(map[capKey]int)}
	// Draw every seed-derived parameter here, in a fixed order, so the
	// program's behaviour depends only on (Seed, Strategy, Ops).
	s := splitmix{state: p.Seed}
	e.aexDelay = 1 + int(s.next()%3)
	e.ipcTrigger = int(s.next() % 3)
	return e, nil
}

// splitmix is the same splitmix64 stream package chaos uses — one uint64 of
// state, full-period, trivially reproducible.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Program returns the attack specification the engine runs.
func (e *Engine) Program() Program { return e.prog }

// Spend consumes one unit of the attack budget, recording the action. It
// returns false (and fires nothing) once the budget is exhausted. Exported
// because scenario-driven attacks (double_map's alias mapping, the pinned
// readers) burn budget from the campaign harness rather than a hook.
func (e *Engine) Spend(site, note string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spendLocked(site, note)
}

func (e *Engine) spendLocked(site, note string) bool {
	if e.fired >= e.prog.Ops {
		return false
	}
	cy := int64(-1)
	if e.rec != nil {
		cy = e.rec.Cycles()
	}
	e.fired++
	e.actions = append(e.actions, Action{Seq: e.fired, Cycles: cy, Site: site, Note: note})
	return true
}

// Fired reports how many attack actions have landed.
func (e *Engine) Fired() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}

// Actions returns a copy of the fired actions in order.
func (e *Engine) Actions() []Action {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Action(nil), e.actions...)
}

// FirstAttackCycle returns the simulated cycle of the first fired action, or
// -1 if nothing fired. Detection latency is measured from here.
func (e *Engine) FirstAttackCycle() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.actions) == 0 {
		return -1
	}
	return e.actions[0].Cycles
}

// Transcript renders the program header and every fired action — the
// byte-identical replay artifact.
func (e *Engine) Transcript() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s\n", e.prog)
	for _, a := range e.actions {
		fmt.Fprintf(&sb, "%s\n", a)
	}
	return sb.String()
}

// Evicted is the blob strategies' tap: hoard a private copy of every sealed
// blob the pager stores, remembering the first (oldest) capture per page
// lane.
func (e *Engine) Evicted(owner isa.EID, vpage isa.VAddr, blob *sgx.EvictedPage) {
	if e.prog.Strategy != StratBlobReplay && e.prog.Strategy != StratBlobCrossWire {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := *blob
	cp.Cipher = append([]byte(nil), blob.Cipher...)
	k := capKey{owner, vpage}
	e.captures = append(e.captures, capture{key: k, blob: &cp})
	if _, seen := e.firstCap[k]; !seen {
		e.firstCap[k] = len(e.captures) - 1
	}
}

// Reload answers a page fault with a hoarded blob instead of the genuine
// one: the page's oldest capture (blob_replay) or the newest capture of any
// other page lane, a fresh, authentic blob wired to the wrong fault
// (blob_crosswire).
func (e *Engine) Reload(owner isa.EID, vpage isa.VAddr, genuine *sgx.EvictedPage) *sgx.EvictedPage {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := capKey{owner, vpage}
	switch e.prog.Strategy {
	case StratBlobReplay:
		idx, ok := e.firstCap[k]
		if !ok {
			return genuine
		}
		stale := e.captures[idx].blob
		if stale.Version >= genuine.Version {
			return genuine // the oldest capture is still the current blob
		}
		if e.spendLocked("pager.reload",
			fmt.Sprintf("replay stale blob v%d over genuine v%d for eid %d page %#x",
				stale.Version, genuine.Version, owner, uint64(vpage))) {
			return stale
		}
	case StratBlobCrossWire:
		for i := len(e.captures) - 1; i >= 0; i-- {
			c := e.captures[i]
			if c.key == k {
				continue
			}
			if e.spendLocked("pager.reload",
				fmt.Sprintf("cross-wire blob of eid %d page %#x into fault of eid %d page %#x",
					c.key.owner, uint64(c.key.vaddr), owner, uint64(vpage))) {
				return c.blob
			}
			break
		}
	}
	return genuine
}

// DeliverIPI suppresses the ETRACK shootdown IPIs while the budget lasts
// (drop_shootdown, reorder_shootdown).
func (e *Engine) DeliverIPI(victim isa.EID, core int) bool {
	if e.prog.Strategy != StratDropShootdown && e.prog.Strategy != StratReorderShootdown {
		return true
	}
	return !e.Spend("pager.shootdown",
		fmt.Sprintf("suppress ETRACK IPI for eid %d -> core %d", victim, core))
}

// Remap points the reloaded PTE at the SetRedirect frame instead of the page
// ELDU just loaded (eld_redirect).
func (e *Engine) Remap(owner isa.EID, vpage isa.VAddr, loaded isa.PAddr) isa.PAddr {
	if e.prog.Strategy != StratEldRedirect {
		return loaded
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.redirSet && e.spendLocked("pager.remap",
		fmt.Sprintf("point reloaded PTE of eid %d page %#x at attacker pa %#x",
			owner, uint64(vpage), uint64(e.redirPA))) {
		return e.redirPA
	}
	return loaded
}

// SetRedirect arms eld_redirect with the attacker-chosen physical frame.
func (e *Engine) SetRedirect(pa isa.PAddr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.redirPA, e.redirSet = pa, true
}

// SetRemapTarget arms remap_under_tlb: the page table to rewrite, the victim
// virtual page, and the attacker frame to point it at.
func (e *Engine) SetRemapTarget(t *pt.Table, v isa.VAddr, pa isa.PAddr, perms isa.Perm) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.remapPT, e.remapV, e.remapPA, e.remapPerms, e.remapSet = t, v, pa, perms, true
}

// Preempt is the scheduler strategies' interposition point, consulted before
// each access chunk; it acts only on a core in enclave mode, on whichever
// core the victim lands on (the SDK rotates ECalls across cores, so a fixed
// target would usually miss).
func (e *Engine) Preempt(c *sgx.Core) error {
	if !c.InEnclave() {
		return nil
	}
	switch e.prog.Strategy {
	case StratAEXPreempt:
		e.mu.Lock()
		e.preemptN++
		fire := e.preemptN >= e.aexDelay &&
			e.spendLocked("sched.preempt",
				fmt.Sprintf("targeted AEX+ERESUME on core %d at in-enclave access #%d", c.ID, e.preemptN))
		e.mu.Unlock()
		if fire {
			aexResume(c, c)
		}
	case StratEresumeWrongCore:
		for _, alt := range c.Machine().Cores() {
			if alt.ID == c.ID || alt.InEnclave() {
				continue
			}
			if e.Spend("sched.resume",
				fmt.Sprintf("AEX core %d, ERESUME its TCS on core %d", c.ID, alt.ID)) {
				aexResume(c, alt)
			}
			break
		}
	case StratRemapUnderTLB:
		e.mu.Lock()
		if !e.remapSet {
			e.mu.Unlock()
			return nil
		}
		e.preemptN++
		switch e.preemptN {
		case 2:
			// Access #1 walked the honest PTE and warmed the TLB (the core
			// entered with a cold TLB); now the rewrite hides behind the
			// cached translation until the TLB drops it.
			if e.spendLocked("sched.remap",
				fmt.Sprintf("rewrite PTE %#x -> pa %#x under live TLB of core %d",
					uint64(e.remapV), uint64(e.remapPA), c.ID)) {
				e.remapPT.Map(e.remapV, e.remapPA, e.remapPerms)
			}
			e.mu.Unlock()
		case 4:
			// Force a flush so the poisoned PTE gets re-walked.
			fire := e.spendLocked("sched.preempt",
				fmt.Sprintf("targeted AEX+ERESUME on core %d to flush its TLB", c.ID))
			e.mu.Unlock()
			if fire {
				aexResume(c, c)
			}
		default:
			e.mu.Unlock()
		}
	}
	return nil
}

// aexResume interrupts the thread on c and resumes it on core to. The
// hardware may refuse either step; the attack simply does not land then.
func aexResume(c, to *sgx.Core) {
	t := c.CurrentTCS()
	if t == nil {
		return
	}
	m := c.Machine()
	if m.AEX(c) != nil {
		return
	}
	_ = m.EResume(to, t)
}

// SetChannel arms the IPC strategies as a full man-in-the-middle on the
// named channel. winSize must match the reliable channel's retransmit
// window so the deep strategies aim past it.
func (e *Engine) SetChannel(name string, winSize int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ipcName, e.ipcWin = name, winSize
}

// Route re-delivers frame 0 once the stream is past the window
// (ipc_replay), withholds a frame for one send (ipc_reorder), or withholds
// one for good (ipc_reorder_deep) on the SetChannel channel.
func (e *Engine) Route(channel string, log [][]byte, msg []byte) [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	if channel != e.ipcName {
		return [][]byte{msg}
	}
	switch e.prog.Strategy {
	case StratIPCReplay:
		if len(log) >= e.ipcWin+3+e.ipcTrigger &&
			e.spendLocked("ipc.replay", fmt.Sprintf("re-deliver frame 0 after %d sends", len(log))) {
			return [][]byte{msg, log[0]}
		}
	case StratIPCReorder:
		if len(e.held) == 0 {
			if e.spendLocked("ipc.reorder",
				fmt.Sprintf("withhold frame %d for one send", len(log)-1)) {
				e.held = append(e.held, msg)
				return nil
			}
			break
		}
		out := append([][]byte{msg}, e.held...)
		e.held = nil
		return out
	case StratIPCReorderDeep:
		if !e.deepHeld && len(log) >= 2 &&
			e.spendLocked("ipc.drop",
				fmt.Sprintf("withhold frame %d past the retransmit window", len(log)-1)) {
			e.deepHeld = true
			return nil
		}
	}
	return [][]byte{msg}
}
