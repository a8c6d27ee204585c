package epc

import (
	"maps"
	"math/rand"
	"testing"
	"unsafe"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
)

func newMgr() *Manager {
	mem := phys.MustNew(phys.Layout{DRAMSize: 4 << 20, PRMBase: 1 << 20, PRMSize: 2 << 20})
	return NewManager(mem)
}

func TestAllocFree(t *testing.T) {
	m := newMgr()
	total := m.NumPages()
	if total != (2<<20)/isa.PageSize {
		t.Fatalf("NumPages = %d", total)
	}
	i, err := m.Alloc(7, isa.PTReg, 0x1000, isa.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != total-1 {
		t.Fatalf("free pages = %d", m.FreePages())
	}
	e := m.Entry(i)
	if !e.Valid || e.Owner != 7 || e.Vaddr != 0x1000 || e.Perms != isa.PermRW || e.Type != isa.PTReg {
		t.Fatalf("entry = %+v", e)
	}
	if err := m.Free(i); err != nil {
		t.Fatal(err)
	}
	if m.Entry(i).Valid {
		t.Fatal("entry valid after free")
	}
	if err := m.Free(i); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestExhaustion(t *testing.T) {
	m := newMgr()
	n := m.NumPages()
	for i := 0; i < n; i++ {
		if _, err := m.Alloc(1, isa.PTReg, isa.VAddr(i)<<isa.PageShift, isa.PermR); err != nil {
			t.Fatalf("alloc %d/%d failed: %v", i, n, err)
		}
	}
	if _, err := m.Alloc(1, isa.PTReg, 0, isa.PermR); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
}

func TestAddrIndexRoundTrip(t *testing.T) {
	m := newMgr()
	for _, i := range []int{0, 1, 100, m.NumPages() - 1} {
		pa := m.AddrOf(i)
		j, ok := m.IndexOf(pa)
		if !ok || j != i {
			t.Fatalf("IndexOf(AddrOf(%d)) = %d, %v", i, j, ok)
		}
		// Interior addresses map to the same page.
		j2, ok := m.IndexOf(pa + 17)
		if !ok || j2 != i {
			t.Fatalf("interior IndexOf = %d, %v", j2, ok)
		}
	}
	if _, ok := m.IndexOf(0); ok {
		t.Fatal("address below EPC resolved")
	}
	if _, ok := m.IndexOf(m.Base() + isa.PAddr(m.NumPages())*isa.PageSize); ok {
		t.Fatal("address above EPC resolved")
	}
}

func TestEntryAt(t *testing.T) {
	m := newMgr()
	i, _ := m.Alloc(3, isa.PTSECS, 0, 0)
	e, ok := m.EntryAt(m.AddrOf(i) + 100)
	if !ok || e.Owner != 3 || e.Type != isa.PTSECS {
		t.Fatalf("EntryAt: %+v ok=%v", e, ok)
	}
	if _, ok := m.EntryAt(0x1000); ok {
		t.Fatal("EntryAt outside EPC resolved")
	}
}

func TestPagesOf(t *testing.T) {
	m := newMgr()
	a, _ := m.Alloc(1, isa.PTReg, 0x1000, isa.PermR)
	b, _ := m.Alloc(2, isa.PTReg, 0x2000, isa.PermR)
	c, _ := m.Alloc(1, isa.PTTCS, 0x3000, 0)
	got := m.PagesOf(1)
	if len(got) != 2 {
		t.Fatalf("PagesOf(1) = %v", got)
	}
	seen := map[int]bool{}
	for _, p := range got {
		seen[p] = true
	}
	if !seen[a] || !seen[c] || seen[b] {
		t.Fatalf("PagesOf(1) = %v, want {%d,%d}", got, a, c)
	}
}

var pageTypes = []isa.PageType{isa.PTReg, isa.PTSECS, isa.PTTCS, isa.PTVA}

// recount takes the census of valid regular pages that the manager's counts
// must match: per owner, and in total.
func recount(m *Manager) (map[isa.EID]int, int) {
	per, total := make(map[isa.EID]int), 0
	for i := 0; i < m.NumPages(); i++ {
		if e := m.Entry(i); e.Valid && e.Type == isa.PTReg {
			per[e.Owner]++
			total++
		}
	}
	return per, total
}

// TestRegularPageCountsMatchRecount is a model test of the per-owner
// counts: after every random Alloc, Free (double frees included) and EBLOCK
// over all page types and several owners, NoEnclave among them, the counts
// equal a recount of the EPCM.
func TestRegularPageCountsMatchRecount(t *testing.T) {
	m := newMgr()
	rng := rand.New(rand.NewSource(1))
	var live []int
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(8); {
		case op < 3 && len(live) > 0:
			if err := m.Free(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		case op == 3:
			_ = m.Free(rng.Intn(m.NumPages())) // may be a double free, which must count nothing
		case op == 4 && len(live) > 0:
			m.Entry(live[rng.Intn(len(live))]).Blocked = true
		default:
			_, _ = m.Alloc(isa.EID(rng.Intn(4)), pageTypes[rng.Intn(len(pageTypes))], 0, isa.PermR) // fails when full
		}
		live = live[:0]
		for i := 0; i < m.NumPages(); i++ {
			if m.Entry(i).Valid {
				live = append(live, i)
			}
		}
		per, total := recount(m)
		if total != m.nregs || !maps.Equal(per, m.regs) {
			t.Fatalf("step %d: counts %v (total %d), recount %v (total %d)", step, m.regs, m.nregs, per, total)
		}
	}
}

// scanCandidate is the plain victim search EvictionCandidate must agree
// with: every page from start, count of them, wrapping at the end.
func scanCandidate(m *Manager, start, count int, skip isa.EID) (int, bool) {
	n := m.NumPages()
	for off := 0; off < count; off++ {
		i := (start + off) % n
		if e := m.Entry(i); e.Valid && !e.Blocked && e.Type == isa.PTReg && e.Owner != skip {
			return i, true
		}
	}
	return 0, false
}

// TestEvictionCandidateMatchesScan compares the victim search with a
// brute-force scan over random EPCM states: one to three owners, every page
// type, blocked pages, holes, regular pages from none through a handful to
// all, wrapping starts, windows shorter than the EPC, and skip set to each
// owner and to NoEnclave.
func TestEvictionCandidateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 120; trial++ {
		m := newMgr()
		n := m.NumPages()
		owners := 1 + rng.Intn(3)
		// A page is regular with odds regular/n: none, a handful, a
		// quarter, or all of them.
		regular := []int{0, 1, 4, n / 4, n}[trial%5]
		for i := 0; i < n; i++ {
			typ := pageTypes[1+rng.Intn(len(pageTypes)-1)] // any but PTReg
			if rng.Intn(n) < regular {
				typ = isa.PTReg
			}
			p, err := m.Alloc(isa.EID(1+rng.Intn(owners)), typ, 0, isa.PermR)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				m.Entry(p).Blocked = true
			}
		}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				if err := m.Free(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		for q := 0; q < 200; q++ {
			start := rng.Intn(n)
			if q%4 == 0 {
				start = n - 1 - rng.Intn(4)
			}
			count := n
			if q%2 == 0 {
				count = rng.Intn(n)
			}
			skip := isa.EID(rng.Intn(owners + 1)) // 0 is NoEnclave
			gi, gok := m.EvictionCandidate(start, count, skip)
			wi, wok := scanCandidate(m, start, count, skip)
			if gi != wi || gok != wok {
				t.Fatalf("trial %d: EvictionCandidate(%d, %d, %d) = %d, %v; scan finds %d, %v", trial, start, count, skip, gi, gok, wi, wok)
			}
		}
	}
}

// TestEntrySize pins an EPCM entry at 24 bytes: its two words, then its
// four one-byte fields.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Errorf("an EPCM entry is %d bytes, want 24", got)
	}
}
