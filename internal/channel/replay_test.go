package channel

import (
	"errors"
	"fmt"
	"testing"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/sdk"
)

// Satellite coverage for the adversarial channel contract: disorder deeper
// than the retransmit window is an attack, typed ErrReplayDetected, never
// transient — so retry loops fail fast instead of hammering a lying kernel.

func TestReplayBeyondWindowDetected(t *testing.T) {
	const win = 4
	k, tx, rx := reliablePair(t, win)
	// The kernel hoards every raw frame; arm it to re-deliver frame 0 long
	// after the stream has moved past the retransmit window.
	replay := false
	k.Machine().SetHostile(routeFunc{f: func(log [][]byte, msg []byte) [][]byte {
		if replay {
			replay = false
			return [][]byte{msg, log[0]}
		}
		return [][]byte{msg}
	}})
	drain := func(want int) {
		t.Helper()
		for i := 0; i < want; i++ {
			if _, ok, err := rx.Recv(); !ok || err != nil {
				t.Fatalf("drain: ok=%v err=%v", ok, err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		tx.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	drain(8)
	replay = true
	tx.Send([]byte("m8"))
	drain(1)
	_, _, err := rx.Recv() // the replayed frame 0, lagging 9 > win
	var re *ReplayError
	if !errors.As(err, &re) {
		t.Fatalf("expected ReplayError, got %v", err)
	}
	if re.Seq != 0 || re.Reorder {
		t.Fatalf("replay error = %+v, want replayed frame 0", re)
	}
	if !errors.Is(err, ErrReplayDetected) {
		t.Fatal("ReplayError does not match ErrReplayDetected")
	}
	if errors.Is(err, chaos.ErrTransient) {
		t.Fatal("replay attack classified transient — retry loops would spin on it")
	}
}

func TestDeepReorderDetected(t *testing.T) {
	const win = 4
	k, tx, rx := reliablePair(t, win)
	// Withhold frame 1 permanently: by the time its gap is discovered the
	// sender's window has slid past it, which no honest kernel can cause.
	withheld := false
	k.Machine().SetHostile(routeFunc{f: func(log [][]byte, msg []byte) [][]byte {
		if !withheld && len(log) == 2 {
			withheld = true
			return nil
		}
		return [][]byte{msg}
	}})
	for i := 0; i < 10; i++ {
		tx.Send([]byte(fmt.Sprintf("m%d", i)))
	}
	if pt, ok, err := rx.RecvRepaired(tx, 8); !ok || err != nil || string(pt) != "m0" {
		t.Fatalf("first frame: %q ok=%v err=%v", pt, ok, err)
	}
	_, _, err := rx.RecvRepaired(tx, 8)
	var re *ReplayError
	if !errors.As(err, &re) {
		t.Fatalf("expected ReplayError, got %v", err)
	}
	if !re.Reorder || re.Seq != 1 {
		t.Fatalf("replay error = %+v, want reorder of frame 1", re)
	}
	if !errors.Is(err, ErrReplayDetected) || errors.Is(err, chaos.ErrTransient) {
		t.Fatalf("deep reorder misclassified: %v", err)
	}
}

// TestRetryPolicyFailsFastOnReplay: a detected replay is permanent — the
// policy must surface it after exactly one attempt, not burn its backoff
// budget against an adversary.
func TestRetryPolicyFailsFastOnReplay(t *testing.T) {
	attempts := 0
	err := sdk.RetryPolicy{MaxAttempts: 6}.Run(nil, nil, func() error {
		attempts++
		return &ReplayError{Channel: "rel", Seq: 0, Latest: 20}
	})
	if attempts != 1 {
		t.Fatalf("replay retried %d times, want fail-fast after 1", attempts)
	}
	if !errors.Is(err, ErrReplayDetected) {
		t.Fatalf("error lost its replay typing: %v", err)
	}
}
