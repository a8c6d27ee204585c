package kos_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// readPage enters s on c through the TCS after its n data pages, reads two
// bytes of data page pg, and checks them against buildEnclaveN's fill
// pattern.
func readPage(t *testing.T, m *sgx.Machine, c *sgx.Core, s *sgx.SECS, n, pg int) {
	t.Helper()
	if err := checkPage(m, c, s, n, pg); err != nil {
		t.Fatal(err)
	}
}

// checkPage is readPage returning its failure, for use off the test's
// goroutine.
func checkPage(m *sgx.Machine, c *sgx.Core, s *sgx.SECS, n, pg int) error {
	if err := m.EEnter(c, s, s.Base+isa.VAddr(n)*isa.PageSize, false); err != nil {
		return fmt.Errorf("enter enclave %d: %v", s.EID, err)
	}
	got, err := c.Read(s.Base+isa.VAddr(pg)*isa.PageSize, 2)
	if eerr := m.EExit(c, true); eerr != nil {
		return fmt.Errorf("exit enclave %d: %v", s.EID, eerr)
	}
	if err != nil {
		return fmt.Errorf("enclave %d page %d: %v", s.EID, pg, err)
	}
	if want := bytes.Repeat([]byte{byte(pg + 1)}, 2); !bytes.Equal(got, want) {
		return fmt.Errorf("enclave %d page %d: content %v, want %v", s.EID, pg, got, want)
	}
	return nil
}

// TestReloadStaysInFaultingAddressSpace gives two processes an enclave at
// the same base and evicts that page from both. A fault in the first
// process must reload its own page with one ELDU and leave the second
// process's page evicted: the blob store is keyed by address space, not
// only by page base.
func TestReloadStaysInFaultingAddressSpace(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	const base, pages = isa.VAddr(0x1000_0000), 2
	p1, p2 := k.NewProcess(), k.NewProcess()
	c1, c2 := m.Core(0), m.Core(1)
	if err := k.Schedule(c1, p1); err != nil {
		t.Fatal(err)
	}
	if err := k.Schedule(c2, p2); err != nil {
		t.Fatal(err)
	}
	s1 := buildEnclaveN(t, k, p1, base, pages)
	s2 := buildEnclaveN(t, k, p2, base, pages)
	for round := 0; round < 200; round++ {
		if err := k.Driver.EvictPage(p1, s1, base); err != nil {
			t.Fatalf("round %d: evict first: %v", round, err)
		}
		if err := k.Driver.EvictPage(p2, s2, base); err != nil {
			t.Fatalf("round %d: evict second: %v", round, err)
		}
		eld := m.Rec.Get(trace.EvELD)
		readPage(t, m, c1, s1, pages, 0)
		if n := m.Rec.Get(trace.EvELD) - eld; n != 1 {
			t.Fatalf("round %d: the fault ran %d ELDUs, want 1", round, n)
		}
		if n := k.Driver.EvictedCount(); n != 1 {
			t.Fatalf("round %d: %d pages evicted after the fault, want the other process's 1", round, n)
		}
		readPage(t, m, c2, s2, pages, 0)
		if n := k.Driver.EvictedCount(); n != 0 {
			t.Fatalf("round %d: %d pages still evicted", round, n)
		}
	}
}

// TestCreateEnclaveUnderEPCPressure fills the EPC with one enclave larger
// than it, then creates a second: ECREATE must make room through the paging
// daemon, take the next EID (a refused attempt consumes none), and leave
// both enclaves' contents intact.
func TestCreateEnclaveUnderEPCPressure(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	const bigPages, smallPages = 300, 4
	big := buildEnclaveN(t, k, p, 0x1000_0000, bigPages)
	if free := m.FreeEPCPages(); free != 0 {
		t.Fatalf("%d EPC pages free after the %d-page enclave, want a full EPC", free, bigPages)
	}
	small := buildEnclaveN(t, k, p, 0x2000_0000, smallPages)
	if small.EID != big.EID+1 {
		t.Fatalf("new enclave has EID %d, want %d", small.EID, big.EID+1)
	}
	for pg := 0; pg < bigPages; pg += 7 {
		readPage(t, m, c, big, bigPages, pg)
	}
	for pg := 0; pg < smallPages; pg++ {
		readPage(t, m, c, small, smallPages, pg)
	}
}

// reloadBytes builds an enclave twice the size of an EPC of epcPages pages,
// then touches its pages in a fixed pseudo-random order and returns the
// host bytes allocated per ELDU over the touches.
func reloadBytes(t *testing.T, epcPages int) float64 {
	t.Helper()
	m := epcMachine(epcPages)
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	const base = isa.VAddr(0x1000_0000)
	n := 2 * epcPages
	s := buildEnclaveN(t, k, p, base, n)
	if err := m.EEnter(c, s, base+isa.VAddr(n)*isa.PageSize, false); err != nil {
		t.Fatal(err)
	}
	var dst [8]byte
	read := func(pg int) {
		if err := c.ReadInto(base+isa.VAddr(pg)*isa.PageSize, dst[:]); err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
	}
	touch := func(i int) { read((i * 7919) % n) }
	// Two sequential passes over the enclave evict every page at least
	// once, so each has its blob-version lane (EWB adds a page's lane at
	// its first eviction) before the measured window opens.
	for pass := 0; pass < 2; pass++ {
		for pg := 0; pg < n; pg++ {
			read(pg)
		}
	}
	for i := 0; i < 64; i++ {
		touch(i) // warm up: maps, caches, and recorder state reach steady size
	}
	var before, after runtime.MemStats
	eld := m.Rec.Get(trace.EvELD)
	runtime.ReadMemStats(&before)
	for i := 64; i < 64+256; i++ {
		touch(i)
	}
	runtime.ReadMemStats(&after)
	reloads := m.Rec.Get(trace.EvELD) - eld
	if err := m.EExit(c, true); err != nil {
		t.Fatal(err)
	}
	if reloads == 0 {
		t.Fatalf("%d-page EPC: no reloads", epcPages)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reloads)
}

// TestReloadHostAllocsConstant pins the host cost of an EPC page fault: the
// bytes the simulator allocates per reload must not grow with the EPC (the
// victim scan and FindRegPage read the EPCM in place, the page table edits
// one entry, the blob store is one map lookup). Not parallel: it reads the
// process-wide allocation counter.
func TestReloadHostAllocsConstant(t *testing.T) {
	small := reloadBytes(t, 256)
	large := reloadBytes(t, 1024)
	t.Logf("bytes allocated per reload: %.0f on a 256-page EPC, %.0f on a 1024-page EPC", small, large)
	if large > 1.25*small {
		t.Fatalf("a reload allocates %.0f B on a 1024-page EPC against %.0f B on a 256-page EPC (>1.25x)", large, small)
	}
}
