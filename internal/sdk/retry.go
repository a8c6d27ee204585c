package sdk

import (
	"errors"
	"fmt"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/trace"
)

// EnclaveCrashed is the typed error surfaced when trusted code panics inside
// an enclave: the runtime contains the crash (scrubbing registers and the
// saved-state area, poisoning the enclave) instead of letting the panic take
// down the host process. The enclave refuses further entries until it is
// destroyed and reloaded — see Supervisor.
type EnclaveCrashed struct {
	Enclave string
	Call    string
	EID     isa.EID
	Panic   any
}

func (e *EnclaveCrashed) Error() string {
	return fmt.Sprintf("enclave %s crashed in %s: %v", e.Enclave, e.Call, e.Panic)
}

// IsCrash reports whether err (or anything it wraps) marks an enclave crash.
// Every n_ocall and n_ecall asks it of a call's result; a nil error returns
// before errors.As moves its target to the heap.
func IsCrash(err error) (*EnclaveCrashed, bool) {
	if err == nil {
		return nil, false
	}
	var ec *EnclaveCrashed
	if errors.As(err, &ec) {
		return ec, true
	}
	return nil, false
}

// RetryPolicy retries transient faults (injected EPC-allocation failures,
// injected channel loss) with exponential backoff and deterministic jitter.
// Backoff is simulated time — it advances the machine clock, not the wall
// clock — so retried runs replay exactly.
type RetryPolicy struct {
	// MaxAttempts caps total tries (0 → 4).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff in simulated cycles (0 →
	// 1000); backoff doubles per retry up to 64 × BaseBackoff.
	BaseBackoff int64
	// Seed drives the jitter stream.
	Seed uint64
}

// Run invokes f until it succeeds, fails permanently, or attempts are
// exhausted. Only errors matching chaos.ErrTransient are retried. On success
// after a transient failure, the failure's fault site (if chaos-injected) is
// credited a recovery via inj. rec and inj may be nil.
func (p RetryPolicy) Run(rec *trace.Recorder, inj *chaos.Injector, f func() error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	base := p.BaseBackoff
	if base <= 0 {
		base = 1000
	}
	maxB := 64 * base
	state := p.Seed
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			backoff := base << (a - 1)
			if backoff <= 0 || backoff > maxB {
				backoff = maxB
			}
			state = chaos.Mix(state)
			jitter := int64(state % uint64(backoff/2+1))
			if rec != nil {
				rec.Advance(backoff + jitter)
			}
		}
		err := f()
		if err == nil {
			if lastErr != nil {
				inj.RecoverFrom(lastErr)
			}
			return nil
		}
		lastErr = err
		if !errors.Is(err, chaos.ErrTransient) {
			return err
		}
	}
	return fmt.Errorf("sdk: %d attempts exhausted: %w", attempts, lastErr)
}
