package pt

import (
	"sync"
	"sync/atomic"
	"testing"

	"nestedenclave/internal/isa"
)

func TestMapWalkTranslate(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermRW)
	e, ok := tab.Walk(0x1234)
	if !ok || !e.Present || e.PPN != 5 || e.Perms != isa.PermRW {
		t.Fatalf("walk: %+v ok=%v", e, ok)
	}
	pa, ok := tab.Translate(0x1234)
	if !ok || pa != 0x5234 {
		t.Fatalf("translate = %#x ok=%v", uint64(pa), ok)
	}
	if _, ok := tab.Walk(0x9000); ok {
		t.Fatal("unmapped address walked")
	}
}

func TestUnmapAndNotPresent(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermR)
	tab.Unmap(0x1000)
	if _, ok := tab.Walk(0x1000); ok {
		t.Fatal("unmapped entry still present")
	}
	tab.Map(0x2000, 0x6000, isa.PermR)
	tab.MarkNotPresent(0x2000)
	e, ok := tab.Walk(0x2000)
	if !ok || e.Present {
		t.Fatalf("not-present: %+v ok=%v (want entry with Present=false)", e, ok)
	}
	if _, ok := tab.Lookup(0x2000); ok {
		t.Fatal("Lookup returned a not-present entry")
	}
	if _, ok := tab.Translate(0x2000); ok {
		t.Fatal("Translate used a not-present entry")
	}
	// MarkNotPresent on a missing entry is a no-op.
	tab.MarkNotPresent(0xdead000)
}

func TestProtect(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermRWX)
	tab.Protect(0x1000, isa.PermR)
	e, _ := tab.Walk(0x1000)
	if e.Perms != isa.PermR {
		t.Fatalf("perms after protect: %v", e.Perms)
	}
	tab.Protect(0xffff000, isa.PermR) // no-op on missing entry
}

func TestLenAndVPNs(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermR)
	tab.Map(0x2000, 0x6000, isa.PermR)
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
	vpns := tab.VPNs()
	if len(vpns) != 2 {
		t.Fatalf("VPNs = %v", vpns)
	}
}

// TestKernelRemap documents the untrusted nature: the kernel can silently
// redirect a virtual page to a different frame; the page table obliges.
func TestKernelRemap(t *testing.T) {
	tab := New()
	tab.Map(0x1000, 0x5000, isa.PermRW)
	tab.Map(0x1000, 0x7000, isa.PermRW)
	pa, _ := tab.Translate(0x1000)
	if pa != 0x7000 {
		t.Fatalf("remap not applied: %#x", uint64(pa))
	}
}

// TestConcurrentWalksAndWrites races one writer — map, mark not-present,
// protect, unmap, remap — against readers that walk, translate, and list
// the table. Page i only ever maps frame i+1 (PermRW) or frame i+1+pages
// (PermRX), later protected to PermR, so every entry a reader sees must be
// one the writer wrote whole. Meant for `go test -race`.
func TestConcurrentWalksAndWrites(t *testing.T) {
	const pages = 32
	tab := New()
	frame := func(i, k int) isa.PAddr { return isa.PAddr(i+1+k*pages) * isa.PageSize }
	for i := 0; i < pages; i++ {
		tab.Map(isa.VAddr(i)*isa.PageSize, frame(i, 0), isa.PermRW)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for i := 0; i < pages; i++ {
					v := isa.VAddr(i) * isa.PageSize
					if e, ok := tab.Walk(v); ok {
						okEntry := e.Perms == isa.PermR ||
							(e.PPN == frame(i, 0).PPN() && e.Perms == isa.PermRW) ||
							(e.PPN == frame(i, 1).PPN() && e.Perms == isa.PermRX)
						if !okEntry || (e.PPN != frame(i, 0).PPN() && e.PPN != frame(i, 1).PPN()) {
							t.Errorf("page %d: torn entry %+v", i, e)
							return
						}
					}
					if pa, ok := tab.Translate(v + 0x10); ok && pa != frame(i, 0)+0x10 && pa != frame(i, 1)+0x10 {
						t.Errorf("page %d: translated to %#x", i, uint64(pa))
						return
					}
				}
				if n, vpns := tab.Len(), tab.VPNs(); n > pages || len(vpns) > pages {
					t.Errorf("table grew: Len %d, %d VPNs", n, len(vpns))
					return
				}
			}
		}()
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < pages; i++ {
			v := isa.VAddr(i) * isa.PageSize
			tab.MarkNotPresent(v)
			tab.Protect(v, isa.PermR)
			tab.Unmap(v)
			k := round % 2
			perms := isa.PermRW
			if k == 1 {
				perms = isa.PermRX
			}
			tab.Map(v, frame(i, k), perms)
		}
	}
	done.Store(true)
	wg.Wait()
	if tab.Len() != pages {
		t.Fatalf("Len = %d after the writer finished, want %d", tab.Len(), pages)
	}
}
