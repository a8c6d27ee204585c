package sdk

import (
	"fmt"
	"strings"
	"sync"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/trace"
)

// SupervisorConfig tunes a self-healing enclave lifecycle.
type SupervisorConfig struct {
	// Retry governs transparent retries of calls and of the reload itself.
	Retry RetryPolicy
	// MaxRestarts caps lifetime restarts (0 → 8).
	MaxRestarts int
	// RestoreECall, when non-empty, names the trusted entry invoked with
	// the latest sealed checkpoint after every restart, so the fresh
	// instance recovers its state. Because the reloaded image measures to
	// the same MRENCLAVE, the new instance re-derives the seal key and can
	// open blobs its predecessor produced.
	RestoreECall string
	// OnRestart, when set, runs after a fresh instance loads and before
	// state restore — the place to re-establish associations.
	OnRestart func(e *Enclave) error
}

// Supervisor owns one enclave's lifecycle: it loads the instance, routes
// calls to it, and when the instance crashes (trusted-code panic or MEE
// machine check poisoning it), tears it down via EREMOVE, reloads the image,
// and recovers state from the latest sealed checkpoint.
type Supervisor struct {
	h   *Host
	si  *SignedImage
	cfg SupervisorConfig

	mu         sync.Mutex
	e          *Enclave
	sealed     []byte
	restarts   int
	restarting bool
}

// Supervise loads the image and returns its supervisor.
func Supervise(h *Host, si *SignedImage, cfg SupervisorConfig) (*Supervisor, error) {
	s := &Supervisor{h: h, si: si, cfg: cfg}
	m := h.K.Machine()
	err := cfg.Retry.Run(m.Rec, chaos.From(m.Hostile()), func() error {
		e, lerr := h.Load(si)
		if lerr != nil {
			return lerr
		}
		s.e = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.OnRestart != nil {
		if err := cfg.OnRestart(s.e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Enclave returns the live instance (nil while down between restarts).
func (s *Supervisor) Enclave() *Enclave {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e
}

// Restarts returns how many times the enclave has been restarted.
func (s *Supervisor) Restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// Checkpoint records the latest sealed state blob. The supervisor stores it
// on the untrusted side — it is sealed, so the host can hold but not read or
// forge it — and feeds it to RestoreECall after a restart.
func (s *Supervisor) Checkpoint(sealed []byte) {
	if len(sealed) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = append(s.sealed[:0:0], sealed...)
}

// Crashed reports whether err indicates that THIS supervisor's enclave is
// dead: either the machine poisoned it, or the error names its EID. A crash
// of some other enclave surfacing through a shared call chain returns false,
// so each supervisor restarts only its own charge.
func (s *Supervisor) Crashed(err error) bool {
	if err == nil {
		return false
	}
	s.mu.Lock()
	e := s.e
	s.mu.Unlock()
	if e == nil {
		return true
	}
	if _, poisoned := s.h.K.Machine().PoisonedReason(e.secs.EID); poisoned {
		return true
	}
	if ec, ok := IsCrash(err); ok && ec.EID == e.secs.EID {
		return true
	}
	return false
}

// Restart tears down the crashed instance (EREMOVE clears the poison mark),
// reloads the image under the retry policy, re-establishes associations via
// OnRestart, and replays the sealed checkpoint into RestoreECall.
func (s *Supervisor) Restart() error {
	// s.mu is NOT held across the teardown/reload/restore sequence: the
	// restore is an ECall into the fresh enclave, and holding the supervisor
	// lock across a domain transition would stall every concurrent
	// Enclave()/Call() for the full restore (and deadlock outright if the
	// restore path ever routed back through the supervisor). Instead the
	// lock is taken briefly to claim the restart (the `restarting` latch
	// serializes concurrent attempts) and again at the end to publish the
	// fresh instance, which until then is private to this goroutine.
	// Flagged by nescheck lockgraph/held-transition.
	s.mu.Lock()
	if s.restarting {
		s.mu.Unlock()
		return fmt.Errorf("sdk: supervisor for %s: restart already in progress: %w",
			s.si.Image.Name, chaos.ErrTransient)
	}
	maxR := s.cfg.MaxRestarts
	if maxR <= 0 {
		maxR = 8
	}
	if s.restarts >= maxR {
		s.mu.Unlock()
		return fmt.Errorf("sdk: supervisor for %s: restart limit (%d) reached", s.si.Image.Name, maxR)
	}
	s.restarts++
	s.restarting = true
	old := s.e
	s.e = nil
	sealed := s.sealed // Checkpoint replaces the slice wholesale, never mutates it
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.restarting = false
		s.mu.Unlock()
	}()
	m := s.h.K.Machine()
	// The restart is machine-global work (teardown, reload, restore); its
	// span opens on NoCore so injected faults cured by the reload retries
	// show up inside it.
	sp := m.Rec.BeginSpan(trace.NoCore, trace.NoEID, "restart:"+s.si.Image.Name)
	defer sp.End()
	var poisonReason string
	if old != nil {
		poisonReason, _ = m.PoisonedReason(old.secs.EID)
		if err := s.h.Destroy(old); err != nil {
			return fmt.Errorf("sdk: supervisor teardown of %s: %w", s.si.Image.Name, err)
		}
	}
	var fresh *Enclave
	err := s.cfg.Retry.Run(m.Rec, chaos.From(m.Hostile()), func() error {
		e, lerr := s.h.Load(s.si)
		if lerr != nil {
			return lerr
		}
		fresh = e
		return nil
	})
	if err != nil {
		return fmt.Errorf("sdk: supervisor reload of %s: %w", s.si.Image.Name, err)
	}
	if s.cfg.OnRestart != nil {
		if err := s.cfg.OnRestart(fresh); err != nil {
			_ = s.h.Destroy(fresh)
			return fmt.Errorf("sdk: supervisor rewire of %s: %w", s.si.Image.Name, err)
		}
	}
	if s.cfg.RestoreECall != "" && len(sealed) > 0 {
		if _, err := fresh.ECall(s.cfg.RestoreECall, sealed); err != nil {
			_ = s.h.Destroy(fresh)
			return fmt.Errorf("sdk: supervisor restore of %s: %w", s.si.Image.Name, err)
		}
	}
	s.mu.Lock()
	s.e = fresh
	s.mu.Unlock()
	// A restart that cures an MEE-integrity poisoning is the recovery arm
	// of the DRAM bit-flip fault site.
	if strings.Contains(poisonReason, "MEE integrity") {
		chaos.From(m.Hostile()).Recovered(chaos.SiteDRAMBitFlip)
	}
	return nil
}

// Call routes an ecall to the live instance with crash-restart and
// transient-fault retry: if the instance crashed, it is restarted (state
// restored from the sealed checkpoint) and the call reissued. Calls must be
// idempotent under this policy — the crash may have landed after a partial
// application.
func (s *Supervisor) Call(name string, args []byte) ([]byte, error) {
	m := s.h.K.Machine()
	var out []byte
	err := s.cfg.Retry.Run(m.Rec, chaos.From(m.Hostile()), func() error {
		e := s.Enclave()
		if e == nil {
			// A previous restart attempt failed (e.g. reload hit injected
			// EPC-allocation faults); try again rather than waiting it out.
			if rerr := s.Restart(); rerr != nil {
				return rerr
			}
			return fmt.Errorf("sdk: supervisor for %s: no live instance: %w", s.si.Image.Name, chaos.ErrTransient)
		}
		res, cerr := e.ECall(name, args)
		if cerr == nil {
			out = res
			return nil
		}
		if s.Crashed(cerr) {
			if rerr := s.Restart(); rerr != nil {
				return rerr
			}
			return fmt.Errorf("sdk: restarted %s after crash (%v): %w", s.si.Image.Name, cerr, chaos.ErrTransient)
		}
		return cerr
	})
	return out, err
}
