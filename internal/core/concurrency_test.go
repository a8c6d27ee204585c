package core_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// TestConcurrentOuterEvictionShootsDownInnerTLBs runs the §IV-E scenario at
// full concurrency, under -race in tier 2: worker goroutines continuously
// enter the nested context (some through the outer via NEENTER, some straight
// into the inner via EENTER) and read an outer heap page, while the kernel
// concurrently evicts and the fault path reloads that same page. The
// inner-aware tracker must shoot down every core holding the translation
// before each EWB, so no worker may ever observe stale or wrong data, and no
// TLB may map the page's old frame after the dust settles.
func TestConcurrentOuterEvictionShootsDownInnerTLBs(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)
	outerHeap := outer.Image().HeapBase()
	payload := []byte("nested-shared-state")

	if _, err := outer.ECall("write", writeArgs(outerHeap, payload)); err != nil {
		t.Fatal(err)
	}

	// nest_read reaches the page through the full nesting: EENTER outer,
	// NEENTER inner, inner reads the outer's heap.
	outer.Image().RegisterECall("nest_read", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "read_outer", args)
	})
	inner.Image().RegisterECall("read_outer", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Read(outerHeap, len(payload))
	})

	const (
		workers    = 3
		iterations = 150
		evictions  = 60
	)
	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		evictedOK atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations && !stop.Load(); i++ {
				var (
					got []byte
					err error
				)
				if w%2 == 0 {
					got, err = outer.ECall("nest_read", nil)
				} else {
					// Direct EENTER into the inner: the path baseline SGX's
					// tracker cannot see (no outer execution context on the
					// core) — only the nested tracker's closure walk keeps
					// this worker coherent.
					got, err = inner.ECall("read_outer", nil)
				}
				if err != nil {
					// A read may fault if it races an eviction the reload
					// path could not repair in time; integrity is what must
					// hold, not availability.
					continue
				}
				if !bytes.Equal(got, payload) {
					stop.Store(true)
					t.Errorf("worker %d iteration %d: read %q, want %q (stale or foreign frame)", w, i, got, payload)
					return
				}
			}
		}(w)
	}

	// The kernel thrashes the page: evict whenever possible; the workers'
	// fault path (reloadIfEvicted) brings it back with ELDU.
	for i := 0; i < evictions && !stop.Load(); i++ {
		if err := r.k.Driver.EvictPage(r.host.Proc, outer.SECS(), outerHeap); err == nil {
			evictedOK.Add(1)
		}
		// An error here is legal: a worker may have revalidated the page
		// between shootdown and EWB, making EWB refuse — that refusal is the
		// invariant working, and simtest proves its necessity.
	}
	stop.Store(false)
	wg.Wait()

	if evictedOK.Load() == 0 {
		t.Fatal("no eviction ever succeeded — the test exercised nothing")
	}
	// One final quiescent round trip, then the global structural audit: no
	// core TLB may violate the EPCM (in particular, no stale translation for
	// any frame the evictions recycled).
	if got, err := outer.ECall("nest_read", nil); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("final nested read: %q, %v", got, err)
	}
	if bad := r.m.AuditInvariants(); len(bad) != 0 {
		t.Fatalf("TLB audit after concurrent eviction: %v", bad)
	}
}
