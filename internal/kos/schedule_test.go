package kos_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
)

// TestScheduleRacesEviction context-switches an idle core between two
// address spaces while the driver evicts an enclave page and the fault path
// reloads it through another core. EWB reads every core's TLB under the
// machine lock, so Schedule must flush the switched core's TLB under that
// lock too; the race detector reports it otherwise.
func TestScheduleRacesEviction(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	const base, pages = isa.VAddr(0x1000_0000), 2
	p1, p2 := k.NewProcess(), k.NewProcess()
	c0, idle := m.Core(0), m.Core(1)
	if err := k.Schedule(c0, p1); err != nil {
		t.Fatal(err)
	}
	s := buildEnclaveN(t, k, p1, base, pages)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, p := range []*kos.Process{p2, p1} {
				if err := k.Schedule(idle, p); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for round := 0; round < 100; round++ {
		if err := k.Driver.EvictPage(p1, s, base); err != nil {
			t.Fatalf("round %d: evict: %v", round, err)
		}
		readPage(t, m, c0, s, pages, 0)
	}
}
