package kos_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nestedenclave/internal/cache"
	"nestedenclave/internal/chaos"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// tinyEPCMachine has room for only a few dozen EPC pages, forcing the
// paging daemon to work.
func tinyEPCMachine() *sgx.Machine { return epcMachine(256) }

// epcMachine is a two-core machine with an EPC of the given number of pages
// (at most 1,536, the PRM's room in its 8 MiB of DRAM).
func epcMachine(pages int) *sgx.Machine {
	return sgx.MustNew(sgx.Config{
		Cores: 2,
		Phys: phys.Layout{
			DRAMSize: 8 << 20,
			PRMBase:  2 << 20,
			PRMSize:  uint64(pages) * isa.PageSize,
		},
		LLC: cache.Config{SizeBytes: 256 << 10, Ways: 8},
	})
}

// buildEnclaveN constructs an enclave with n RW data pages holding a
// per-page fill pattern, returning the SECS.
func buildEnclaveN(t *testing.T, k *kos.Kernel, p *kos.Process, base isa.VAddr, n int) *sgx.SECS {
	t.Helper()
	size := uint64(n+1) * isa.PageSize
	s, err := k.Driver.CreateEnclave(base, size, 0)
	if err != nil {
		t.Fatalf("ECREATE: %v", err)
	}
	b := measure.NewBuilder()
	b.ECreate(size, 0)
	for i := 0; i < n; i++ {
		v := base + isa.VAddr(i)*isa.PageSize
		content := bytes.Repeat([]byte{byte(i + 1)}, isa.PageSize)
		if err := k.Driver.AddPage(p, s, sgx.AddPageArgs{
			Vaddr: v, Type: isa.PTReg, Perms: isa.PermRW, Content: content, Measure: true,
		}); err != nil {
			t.Fatalf("EADD %d: %v", i, err)
		}
		b.EAdd(uint64(v-base), isa.PTReg, isa.PermRW)
		for ch := 0; ch < isa.PageSize; ch += isa.ExtendChunk {
			b.EExtend(uint64(v-base)+uint64(ch), content[ch:ch+isa.ExtendChunk])
		}
	}
	tcsV := base + isa.VAddr(n)*isa.PageSize
	if err := k.Driver.AddPage(p, s, sgx.AddPageArgs{Vaddr: tcsV, Type: isa.PTTCS}); err != nil {
		t.Fatalf("EADD tcs: %v", err)
	}
	b.EAdd(uint64(tcsV-base), isa.PTTCS, 0)
	author := measure.MustNewAuthor()
	if err := k.Driver.InitEnclave(s, author.Sign(b.Finalize(), nil, nil)); err != nil {
		t.Fatalf("EINIT: %v", err)
	}
	return s
}

// TestPagingDaemonOversubscription builds enclaves whose combined footprint
// exceeds the EPC; the paging daemon must evict victims transparently, and
// every page's content must survive the round trips through untrusted swap.
func TestPagingDaemonOversubscription(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}

	// 256 EPC pages total; build 3 enclaves of 100 data pages each
	// (~306 pages + SECS/TCS overhead) — well oversubscribed.
	const perEnclave = 100
	var encls []*sgx.SECS
	for i := 0; i < 3; i++ {
		base := isa.VAddr(0x1000_0000 * (i + 1))
		encls = append(encls, buildEnclaveN(t, k, p, base, perEnclave))
	}
	if k.Driver.EvictedCount() == 0 {
		t.Fatal("oversubscription produced no evictions")
	}

	// Every page of every enclave still reads its fill pattern (reloaded on
	// demand through the fault handler).
	for i, s := range encls {
		base := isa.VAddr(0x1000_0000 * (i + 1))
		tcsV := base + perEnclave*isa.PageSize
		tcs, err := s.FindTCS(tcsV)
		if err != nil {
			t.Fatal(err)
		}
		_ = tcs
		if err := m.EEnter(c, s, tcsV, false); err != nil {
			t.Fatalf("enter enclave %d: %v", i, err)
		}
		for pg := 0; pg < perEnclave; pg += 7 {
			got, err := c.Read(base+isa.VAddr(pg)*isa.PageSize+100, 4)
			if err != nil {
				t.Fatalf("enclave %d page %d: %v", i, pg, err)
			}
			want := byte(pg + 1)
			for _, x := range got {
				if x != want {
					t.Fatalf("enclave %d page %d: content %v, want %#x", i, pg, got, want)
				}
			}
		}
		if err := m.EExit(c, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPagingDaemonThrashing alternates accesses between two enclaves that
// cannot both be resident, exercising evict-reload-evict cycles.
func TestPagingDaemonThrashing(t *testing.T) {
	m := tinyEPCMachine()
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	const perEnclave = 110 // 2x110 data pages + overhead > 256 EPC pages
	a := buildEnclaveN(t, k, p, 0x1000_0000, perEnclave)
	b := buildEnclaveN(t, k, p, 0x2000_0000, perEnclave)

	read := func(s *sgx.SECS, base isa.VAddr, pg int) error {
		tcsV := base + perEnclave*isa.PageSize
		if err := m.EEnter(c, s, tcsV, false); err != nil {
			return err
		}
		got, err := c.Read(base+isa.VAddr(pg)*isa.PageSize, 2)
		if err != nil {
			_ = m.EExit(c, true)
			return err
		}
		if got[0] != byte(pg+1) {
			_ = m.EExit(c, true)
			return fmt.Errorf("page %d content %v", pg, got)
		}
		return m.EExit(c, true)
	}
	for round := 0; round < 4; round++ {
		for pg := 0; pg < perEnclave; pg += 13 {
			if err := read(a, 0x1000_0000, pg); err != nil {
				t.Fatalf("round %d enclave a page %d: %v", round, pg, err)
			}
			if err := read(b, 0x2000_0000, pg); err != nil {
				t.Fatalf("round %d enclave b page %d: %v", round, pg, err)
			}
		}
	}
	if bad := m.AuditInvariants(); len(bad) != 0 {
		t.Fatalf("stale translations after thrash: %v", bad)
	}
}

// TestPressuredFaultRunsOneELDU demand-faults an enclave twice the size of
// the EPC. The paging daemon makes room before the reload, so each reload
// runs ELDU once: no refused ELDU opens the sealed blob, or samples the eld
// histogram, before the EPC has a free page.
func TestPressuredFaultRunsOneELDU(t *testing.T) {
	m := epcMachine(64)
	k := kos.New(m)
	p := k.NewProcess()
	c := m.Core(0)
	if err := k.Schedule(c, p); err != nil {
		t.Fatal(err)
	}
	const pages = 128
	s := buildEnclaveN(t, k, p, 0x1000_0000, pages)
	runs, reloads := m.Rec.Hist(trace.OpELD).Count(), m.Rec.Get(trace.EvELD)
	for i := 0; i < 200; i++ {
		readPage(t, m, c, s, pages, (i*37)%pages)
	}
	runs, reloads = m.Rec.Hist(trace.OpELD).Count()-runs, m.Rec.Get(trace.EvELD)-reloads
	if reloads == 0 {
		t.Fatal("200 reads of an enclave twice the EPC reloaded nothing")
	}
	if runs != reloads {
		t.Fatalf("%d ELDU runs for %d reloads", runs, reloads)
	}
}

// TestBuildUnderPressureRacesFaults builds enclave B while another
// goroutine demand-faults enclave A on core 1; the two do not fit in the
// EPC together, so each side's paging daemon evicts the other's pages. No
// allocation may lose the frame its daemon freed to a concurrent one, and
// no eviction may take a new page before it is mapped: every build step
// succeeds and every read returns its fill pattern. Each round also reads
// B back on core 0 while A faults, then destroys it.
func TestBuildUnderPressureRacesFaults(t *testing.T) {
	m := epcMachine(64)
	k := kos.New(m)
	p := k.NewProcess()
	c0, c1 := m.Core(0), m.Core(1)
	for _, c := range []*sgx.Core{c0, c1} {
		if err := k.Schedule(c, p); err != nil {
			t.Fatal(err)
		}
	}
	const pages, rounds = 48, 4
	a := buildEnclaveN(t, k, p, 0x1000_0000, pages)
	done, errc := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				errc <- nil
				return
			default:
			}
			if err := checkPage(m, c1, a, pages, (i*7)%pages); err != nil {
				errc <- err
				return
			}
		}
	}()
	defer func() {
		close(done)
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}()
	for r := 0; r < rounds; r++ {
		b := buildEnclaveN(t, k, p, 0x2000_0000, pages)
		for pg := 0; pg < pages; pg++ {
			if err := checkPage(m, c0, b, pages, pg); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		if err := k.Driver.DestroyEnclave(p, b); err != nil {
			t.Fatalf("round %d: destroy: %v", r, err)
		}
	}
}

// TestFullEPCWithoutVictimRefuses fills the EPC with SECS pages, which the
// paging daemon cannot evict. ECREATE must then fail permanently with the
// instruction's #GP, not with an error a retry policy would retry.
func TestFullEPCWithoutVictimRefuses(t *testing.T) {
	m := epcMachine(8)
	k := kos.New(m)
	for i := 0; i < 8; i++ {
		if _, err := k.Driver.CreateEnclave(isa.VAddr(0x1000_0000*(i+1)), 2*isa.PageSize, 0); err != nil {
			t.Fatalf("ECREATE %d: %v", i, err)
		}
	}
	if free := m.FreeEPCPages(); free != 0 {
		t.Fatalf("%d EPC pages free after eight ECREATEs, want a full EPC", free)
	}
	_, err := k.Driver.CreateEnclave(0x9000_0000, 2*isa.PageSize, 0)
	var f *isa.Fault
	if !errors.As(err, &f) || f.Class != isa.FaultGP {
		t.Fatalf("ECREATE on an EPC of SECS pages: %v, want a #GP", err)
	}
	if errors.Is(err, chaos.ErrTransient) {
		t.Fatalf("ECREATE on an EPC of SECS pages: %v is transient, want permanent", err)
	}
}
