package channel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nestedenclave/internal/kos"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

func TestSendBatchOneKernelCrossing(t *testing.T) {
	k, tx, rx := reliablePair(t, 0)
	const n = 16
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("payload-%02d", i))
	}
	tx.SendBatch(batch)

	if got := k.IPC.Sends("rel"); got != 1 {
		t.Fatalf("batch of %d crossed the kernel %d times, want 1", n, got)
	}
	got, ok, err := rx.RecvBatch()
	if err != nil || !ok {
		t.Fatalf("RecvBatch: ok=%v err=%v", ok, err)
	}
	if len(got) != n {
		t.Fatalf("RecvBatch returned %d payloads, want %d", len(got), n)
	}
	for i := range got {
		if !bytes.Equal(got[i], batch[i]) {
			t.Fatalf("payload %d: got %q want %q", i, got[i], batch[i])
		}
	}
	if _, ok, _ := rx.RecvBatch(); ok {
		t.Fatal("phantom batch")
	}
}

func TestSendBatchEmptySendsNothing(t *testing.T) {
	k, tx, _ := reliablePair(t, 0)
	tx.SendBatch(nil)
	if got := k.IPC.Sends("rel"); got != 0 {
		t.Fatalf("empty batch crossed the kernel %d times", got)
	}
}

// TestSendBatchAmortizesGCMFixedCost measures the modelled crypto cycles for
// n small messages sent individually vs as one batch: the batch pays one
// CostGCMFixed instead of n, so it must be substantially cheaper.
func TestSendBatchAmortizesGCMFixedCost(t *testing.T) {
	const n, size = 32, 64
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, size)
	}

	run := func(batched bool) int64 {
		k := kos.New(sgx.MustNew(sgx.SmallConfig()))
		rec := &trace.Recorder{}
		tx, err := NewReliable(k.IPC, "amort", [16]byte{7}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewReliable(k.IPC, "amort", [16]byte{7}, 0)
		if err != nil {
			t.Fatal(err)
		}
		tx.Trace(rec)
		rx.Trace(rec)
		start := rec.Cycles()
		if batched {
			tx.SendBatch(payloads)
			got, ok, err := rx.RecvBatch()
			if err != nil || !ok || len(got) != n {
				t.Fatalf("batched recv: ok=%v err=%v n=%d", ok, err, len(got))
			}
		} else {
			for _, p := range payloads {
				tx.Send(p)
			}
			for i := 0; i < n; i++ {
				if _, ok, err := rx.Recv(); err != nil || !ok {
					t.Fatalf("recv %d: ok=%v err=%v", i, ok, err)
				}
			}
		}
		return rec.Cycles() - start
	}

	single := run(false)
	batched := run(true)
	// n messages pay n*(seal+open) fixed costs; the batch pays one pair. The
	// per-block cost is identical up to framing, so the saving must approach
	// 2*(n-1)*CostGCMFixed.
	saving := single - batched
	floor := int64(2*(n-1)) * trace.CostGCMFixed * 9 / 10
	if saving < floor {
		t.Fatalf("batching saved %d cycles (single=%d batched=%d), want >= %d", saving, single, batched, floor)
	}
}

// TestBatchFrameRepairsAsAUnit drops the batch frame in flight and checks
// the retransmit loop redelivers every payload in it.
func TestBatchFrameRepairsAsAUnit(t *testing.T) {
	k, tx, rx := reliablePair(t, 0)
	k.Machine().SetHostile(dropFirst)
	batch := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	tx.SendBatch(batch) // dropped by the kernel
	tx.Send([]byte("tail"))

	got, ok, err := rx.RecvBatchRepaired(tx, 0)
	if err != nil || !ok {
		t.Fatalf("repaired batch: ok=%v err=%v", ok, err)
	}
	if len(got) != len(batch) || !bytes.Equal(got[2], []byte("ccc")) {
		t.Fatalf("repaired batch = %q", got)
	}
	pt, ok, err := rx.RecvRepaired(tx, 0)
	if err != nil || !ok || string(pt) != "tail" {
		t.Fatalf("tail after repaired batch: %q ok=%v err=%v", pt, ok, err)
	}
}

// TestBatchFrameTruncationDetected: a non-batch frame fed to RecvBatch (or a
// malformed batch) is an explicit error, not a silent misparse.
func TestBatchFrameTruncationDetected(t *testing.T) {
	_, tx, rx := reliablePair(t, 0)
	tx.Send([]byte("not-a-batch-frame"))
	_, ok, err := rx.RecvBatch()
	if !ok || err == nil {
		t.Fatalf("malformed batch accepted: ok=%v err=%v", ok, err)
	}
	var ge *GapError
	if errors.As(err, &ge) {
		t.Fatalf("malformed batch misclassified as transport gap: %v", err)
	}
}
