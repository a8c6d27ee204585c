// Package adversary turns the simulator's untrusted kernel into an active
// attacker. Where package chaos injects *random* faults at the kernel/MEE/
// IPC boundaries, this package executes *named attack strategies* — the
// kernel lying about page mappings, replaying sealed paging blobs, dropping
// shootdown IPIs, mis-scheduling AEX/ERESUME, and replaying or reordering
// IPC — each as a deterministic (seed, strategy, ops) program.
//
// The threat model is the paper's §VII discussion sharpened to its worst
// case: the OS is not merely buggy but adversarial, and every interface it
// implements (page tables, the pager, the scheduler, IPC routing) is a
// weapon. The defended-or-detected contract the campaign harness
// (internal/bench) verifies for every strategy:
//
//   - defended: Figure-6 access validation and the four §VII-A invariants
//     hold throughout, and the workload completes with correct data; or
//   - detected: a typed detection error — ErrBlobReplay from the sealed-blob
//     version counters, ErrReplayDetected from the reliable channel's
//     sequence accounting, ErrContextLost from the trusted runtime's
//     scheduling guard, or a Figure-6 fault — surfaces before any wrong
//     data is returned.
//
// A strategy that ends any other way (wrong data, silent corruption) is a
// breach, and the campaign test fails.
package adversary

import (
	"fmt"
	"strings"
)

// Strategy names one attack program. The catalog is the contract between
// the engine, the campaign harness, and the CLI scoreboard.
type Strategy string

const (
	// StratDoubleMap maps an attacker-controlled virtual page at a victim
	// enclave's resident EPC frame and reads it from outside the enclave.
	StratDoubleMap Strategy = "double_map"
	// StratRemapUnderTLB rewrites the victim's PTE to an attacker frame
	// while the victim core still holds the old translation in its TLB,
	// then forces a flush so the poisoned PTE gets re-walked.
	StratRemapUnderTLB Strategy = "remap_under_tlb"
	// StratEldRedirect reloads an evicted page honestly but points the
	// repaired PTE at an attacker-chosen physical frame.
	StratEldRedirect Strategy = "eld_redirect"
	// StratBlobReplay presents a stale (earlier-version) sealed EWB blob on
	// the page-fault reload path.
	StratBlobReplay Strategy = "blob_replay"
	// StratBlobCrossWire answers one enclave's page fault with another
	// enclave's (fresh, authentic) sealed blob.
	StratBlobCrossWire Strategy = "blob_crosswire"
	// StratDropShootdown suppresses the ETRACK shootdown IPIs during
	// eviction, leaving a cross-core reader with a live translation, then
	// escalates to EREMOVE when the hardware refuses the eviction; EREMOVE
	// refuses too.
	StratDropShootdown Strategy = "drop_shootdown"
	// StratReorderShootdown delivers the shootdown IPIs only after the
	// first EWB attempt instead of before it.
	StratReorderShootdown Strategy = "reorder_shootdown"
	// StratAEXPreempt delivers targeted AEX preemptions inside the victim's
	// critical window (mid-call, between accesses).
	StratAEXPreempt Strategy = "aex_preempt"
	// StratEresumeWrongCore AEXes the victim and ERESUMEs its TCS on a
	// different core, leaving the original thread on a dead context.
	StratEresumeWrongCore Strategy = "eresume_wrong_core"
	// StratIPCReplay re-delivers a long-since-delivered frame on the
	// reliable channel.
	StratIPCReplay Strategy = "ipc_replay"
	// StratIPCReorder swaps adjacent frames in flight — disorder within the
	// retransmit bound, which the channel must absorb.
	StratIPCReorder Strategy = "ipc_reorder"
	// StratIPCReorderDeep withholds a frame until it has fallen out of the
	// sender's retransmit window.
	StratIPCReorderDeep Strategy = "ipc_reorder_deep"
)

// Strategies returns the full catalog in campaign order.
func Strategies() []Strategy {
	return []Strategy{
		StratDoubleMap, StratRemapUnderTLB, StratEldRedirect,
		StratBlobReplay, StratBlobCrossWire,
		StratDropShootdown, StratReorderShootdown,
		StratAEXPreempt, StratEresumeWrongCore,
		StratIPCReplay, StratIPCReorder, StratIPCReorderDeep,
	}
}

// ParseStrategy resolves a name to a catalog entry.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if string(s) == name {
			return s, nil
		}
	}
	return "", fmt.Errorf("adversary: unknown strategy %q (catalog: %s)", name, strings.Join(StrategyNames(), ", "))
}

// StrategyNames returns the catalog as plain strings (CLI help).
func StrategyNames() []string {
	all := Strategies()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = string(s)
	}
	return out
}

// Program is the deterministic attack specification: everything a run needs
// to replay byte-identically.
type Program struct {
	Seed     uint64
	Strategy Strategy
	// Ops bounds how many attack actions the engine may fire (its budget).
	Ops int
}

// String renders the replay line.
func (p Program) String() string {
	return fmt.Sprintf("-adversary -strategy %s -seed %#x -ops %d", p.Strategy, p.Seed, p.Ops)
}

// Action is one fired attack, stamped with the simulated cycle it landed on.
// The sequence of actions is the run's transcript; two runs of the same
// Program must produce identical transcripts.
type Action struct {
	Seq    int
	Cycles int64
	Site   string
	Note   string
}

func (a Action) String() string {
	return fmt.Sprintf("#%d @%d %s: %s", a.Seq, a.Cycles, a.Site, a.Note)
}
