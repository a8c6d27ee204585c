package kos_test

import (
	"errors"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// TestPressuredFaultAllocatesOnlyItsFault pins the host cost of a
// steady-state demand fault under EPC pressure. An enclave twice the size of
// the EPC reads the next page each time, so every read faults, and the
// paging daemon evicts a page (EBLOCK, ETRACK with shootdowns, EWB into a
// spent blob) before ELDU reloads the page read and the kernel remaps it.
// None of that allocates, and neither does the fault: the core hands the
// kernel its own fault record, and a repaired fault never leaves the core.
// Not parallel: it reads the process-wide allocation counter.
func TestPressuredFaultAllocatesOnlyItsFault(t *testing.T) {
	m := epcMachine(64)
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	const base, pages = isa.VAddr(0x1000_0000), 128
	s := buildEnclaveN(t, k, p, base, pages)
	if err := m.EEnter(c, s, base+pages*isa.PageSize, false); err != nil {
		t.Fatal(err)
	}
	var dst [8]byte
	var err error
	next := 0
	read := func() {
		pg := next % pages
		next++
		if e := c.ReadInto(base+isa.VAddr(pg)*isa.PageSize, dst[:]); e != nil && err == nil {
			err = e
		} else if dst[0] != byte(pg+1) && err == nil {
			err = errors.New("page content lost in a round trip")
		}
	}
	for next < pages {
		read() // one sweep leaves the EPC full of the enclave's second half
	}
	ewb, eld := m.Rec.Get(trace.EvEWB), m.Rec.Get(trace.EvELD)
	const runs = 100
	allocs := testing.AllocsPerRun(runs, read)
	if err != nil {
		t.Fatal(err)
	}
	if n, r := m.Rec.Get(trace.EvEWB)-ewb, m.Rec.Get(trace.EvELD)-eld; n != runs+1 || r != runs+1 {
		t.Fatalf("%d reads ran %d EWB and %d ELDU, want one each", runs+1, n, r)
	}
	if allocs != 0 {
		t.Errorf("a pressured demand fault allocates %.0f times, want 0", allocs)
	}
	if err := m.EExit(c, true); err != nil {
		t.Fatal(err)
	}
}

// poolWatch is a platform that checks the driver's blob recycling from
// outside. It tracks the blob each evicted page is stored in (Evicted
// stores one; the Remap after an honest reload spends it), fails the test
// when EWB seals into a blob that still stores another page, counts the
// blobs sealed into again, and hoards a private copy of each page's first
// blob. Reload hands out the hoarded copy for the page named by replay.
type poolWatch struct {
	sgx.Honest
	t       *testing.T
	stored  map[*sgx.EvictedPage]isa.VAddr // blob -> the page it stores
	byPage  map[isa.VAddr]*sgx.EvictedPage
	history map[*sgx.EvictedPage][]isa.VAddr // every page each blob has stored
	first   map[isa.VAddr]*sgx.EvictedPage   // first blob of each page, copied
	firstAt map[isa.VAddr]*sgx.EvictedPage   // the blob it was sealed into
	replay  isa.VAddr
}

func newPoolWatch(t *testing.T) *poolWatch {
	return &poolWatch{
		t:       t,
		stored:  make(map[*sgx.EvictedPage]isa.VAddr),
		byPage:  make(map[isa.VAddr]*sgx.EvictedPage),
		history: make(map[*sgx.EvictedPage][]isa.VAddr),
		first:   make(map[isa.VAddr]*sgx.EvictedPage),
		firstAt: make(map[isa.VAddr]*sgx.EvictedPage),
	}
}

func (w *poolWatch) Evicted(_ isa.EID, vpage isa.VAddr, blob *sgx.EvictedPage) {
	if v, ok := w.stored[blob]; ok {
		w.t.Errorf("EWB sealed page %#x into the blob still storing page %#x", uint64(vpage), uint64(v))
	}
	w.stored[blob], w.byPage[vpage] = vpage, blob
	w.history[blob] = append(w.history[blob], vpage)
	if _, ok := w.first[vpage]; !ok {
		cp := *blob
		cp.Cipher = append([]byte(nil), blob.Cipher...)
		w.first[vpage], w.firstAt[vpage] = &cp, blob
	}
}

func (w *poolWatch) Reload(_ isa.EID, vpage isa.VAddr, genuine *sgx.EvictedPage) *sgx.EvictedPage {
	if vpage == w.replay {
		return w.first[vpage]
	}
	return genuine
}

// Remap follows every ELDU that succeeded; with replay refused, that is an
// honest reload, which spends the page's stored blob.
func (w *poolWatch) Remap(_ isa.EID, vpage isa.VAddr, loaded isa.PAddr) isa.PAddr {
	if b, ok := w.byPage[vpage]; ok {
		delete(w.stored, b)
		delete(w.byPage, vpage)
	}
	return loaded
}

// forget drops every stored blob of the pages in [base, base+n pages), as
// the driver does when it tears their enclave down.
func (w *poolWatch) forget(base isa.VAddr, n int) {
	for v := base; v < base+isa.VAddr(n)*isa.PageSize; v += isa.PageSize {
		if b, ok := w.byPage[v]; ok {
			delete(w.stored, b)
			delete(w.byPage, v)
		}
	}
}

// TestBlobPoolNeverReusesStoredBlob demand-faults an enclave twice the size
// of the EPC, destroys it, and builds and reads a second one, with poolWatch
// checking every eviction: the driver seals into spent blobs, from reloads
// and from the teardown, and never into one still stored. After a page's
// first blob has been sealed into again for another page, the platform's
// private copy of that first blob is still refused as a replay, and the
// honest reload that follows returns the page's bytes.
func TestBlobPoolNeverReusesStoredBlob(t *testing.T) {
	m := epcMachine(64)
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	w := newPoolWatch(t)
	m.SetHostile(w)
	const a, b, pages = isa.VAddr(0x1000_0000), isa.VAddr(0x2000_0000), 128
	s := buildEnclaveN(t, k, p, a, pages)
	for i := 0; i < 300; i++ {
		readPage(t, m, c, s, pages, (i*37)%pages)
	}
	reused := 0
	for _, pgs := range w.history {
		reused += len(pgs) - 1
	}
	if reused == 0 {
		t.Fatal("300 demand faults never sealed into a spent blob")
	}

	// A page whose first blob now stores (or stored) another page, and which
	// is swapped out again under a newer version.
	victim := -1
	for pg := 0; pg < pages && victim < 0; pg++ {
		v := a + isa.VAddr(pg)*isa.PageSize
		if _, out := w.byPage[v]; out && len(w.history[w.firstAt[v]]) > 1 {
			victim = pg
		}
	}
	if victim < 0 {
		t.Fatal("no swapped-out page whose first blob was sealed into again")
	}
	w.replay = a + isa.VAddr(victim)*isa.PageSize
	if err := m.EEnter(c, s, a+pages*isa.PageSize, false); err != nil {
		t.Fatal(err)
	}
	_, err := c.Read(w.replay, 2)
	if eerr := m.EExit(c, true); eerr != nil {
		t.Fatal(eerr)
	}
	if !isa.IsFault(err, isa.FaultPF) {
		t.Fatalf("read through a replayed older blob: %v, want a #PF", err)
	}
	if ev := k.Driver.DetectionEvidence(); !errors.Is(ev, sgx.ErrBlobReplay) {
		t.Fatalf("replayed older blob: evidence %v, want a blob replay", ev)
	}
	w.replay = 0
	readPage(t, m, c, s, pages, victim)

	// The teardown's blobs take the next enclave's evictions.
	sealed := len(w.history)
	if err := k.Driver.DestroyEnclave(p, s); err != nil {
		t.Fatal(err)
	}
	w.forget(a, pages)
	s = buildEnclaveN(t, k, p, b, pages)
	for i := 0; i < 100; i++ {
		readPage(t, m, c, s, pages, (i*37)%pages)
	}
	if n := len(w.history) - sealed; n != 0 {
		t.Errorf("the second enclave's evictions allocated %d blobs with the first one's %d spent ones spare", n, sealed)
	}
}
