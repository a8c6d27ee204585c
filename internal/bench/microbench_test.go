package bench

import (
	"math/rand"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
	"nestedenclave/internal/ycsb"
)

// Transition-path microbenchmarks (`make bench`): ns/op and allocs/op for
// each call primitive. The simulated-cycle costs are gated elsewhere (the
// switchless experiment); these catch host-side overhead and allocation
// regressions in the SDK marshalling and transition plumbing.

type microRig struct {
	r            *Rig
	inner, outer *sdk.Enclave
	loops        int // read by the loop ecalls
}

func newMicroRig(b *testing.B) *microRig {
	b.Helper()
	mr := &microRig{}
	r, err := NewRig(SmallMachine())
	if err != nil {
		b.Fatal(err)
	}
	mr.r = r
	outerImg := sdk.NewImage("mb-outer", 0x2000_0000, sdk.DefaultLayout())
	innerImg := sdk.NewImage("mb-inner", 0x1000_0000, sdk.DefaultLayout())
	outerImg.AllowOCall("mb_noop")
	outerImg.AllowSwitchless("mb_fast")
	payload := make([]byte, 64)
	innerImg.RegisterECall("noop", func(env *sdk.Env, args []byte) ([]byte, error) {
		return payload, nil
	})
	outerImg.RegisterECall("noop", func(env *sdk.Env, args []byte) ([]byte, error) {
		return payload, nil
	})
	outerImg.RegisterECall("ocall_loop", func(env *sdk.Env, args []byte) ([]byte, error) {
		for i := 0; i < mr.loops; i++ {
			if _, err := env.OCall("mb_noop", payload); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	outerImg.RegisterECall("sw_loop", func(env *sdk.Env, args []byte) ([]byte, error) {
		for i := 0; i < mr.loops; i++ {
			if _, err := env.OCallAsync("mb_fast", payload); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	outerImg.RegisterECall("necall_loop", func(env *sdk.Env, args []byte) ([]byte, error) {
		inner := env.E.Inners()[0]
		for i := 0; i < mr.loops; i++ {
			if _, err := env.NECall(inner, "noop", payload); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	outerImg.RegisterNOCall("noop", func(env *sdk.Env, args []byte) ([]byte, error) {
		return payload, nil
	})
	innerImg.RegisterECall("nocall_loop", func(env *sdk.Env, args []byte) ([]byte, error) {
		for i := 0; i < mr.loops; i++ {
			if _, err := env.NOCall("noop", payload); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	outerImg.RegisterECall("nocall_driver", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "nocall_loop", nil)
	})
	outerImg.RegisterECall("read64", func(env *sdk.Env, args []byte) ([]byte, error) {
		heap := env.E.Image().HeapBase()
		for i := 0; i < 64; i++ {
			if _, err := env.Read(heap+isa.VAddr(i*256), 256); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	r.Host.RegisterOCall("mb_noop", func(args []byte) ([]byte, error) { return payload, nil })
	r.Host.RegisterOCall("mb_fast", func(args []byte) ([]byte, error) { return payload, nil })
	if mr.inner, mr.outer, err = r.LoadPair(innerImg, outerImg); err != nil {
		b.Fatal(err)
	}
	return mr
}

// runLoop drives one of the loop ecalls with b.N iterations inside a single
// enclave entry, so per-op numbers reflect the op, not the entry.
func (mr *microRig) runLoop(b *testing.B, name string) {
	mr.loops = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := mr.outer.ECall(name, nil); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkECall(b *testing.B) {
	mr := newMicroRig(b)
	args := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.outer.ECall("noop", args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOCall(b *testing.B) {
	newMicroRig(b).runLoop(b, "ocall_loop")
}

func BenchmarkNECall(b *testing.B) {
	newMicroRig(b).runLoop(b, "necall_loop")
}

// BenchmarkNOCall is one n_ocall on each of its two paths. On the upward
// path the host ecalls the inner directly and the inner's n_ocall NEENTERs
// its outer, as Table VI's per-client enclaves call the shared SQL engine.
// On the fast path the outer NECalls the inner first, so the n_ocall
// NEEXITs to the suspended outer and NEENTERs back, as Table II's
// nocall_driver does.
func BenchmarkNOCall(b *testing.B) {
	b.Run("upward", func(b *testing.B) {
		mr := newMicroRig(b)
		mr.loops = b.N
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := mr.inner.ECall("nocall_loop", nil); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("fast", func(b *testing.B) {
		newMicroRig(b).runLoop(b, "nocall_driver")
	})
}

// BenchmarkEnvRead is one ecall that makes 64 Env.Reads of 256 B from its
// heap, as outer-stream's consumer reads its batch. A call's Read results
// stay on its core's stack until it returns, so each iteration is its own
// ecall rather than b.N Reads inside one. One call per core first grows
// every core's stack, as a running service's first requests do.
func BenchmarkEnvRead(b *testing.B) {
	mr := newMicroRig(b)
	for i := 0; i < len(mr.r.M.Cores()); i++ {
		if _, err := mr.outer.ECall("read64", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.outer.ECall("read64", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwitchlessOCall(b *testing.B) {
	mr := newMicroRig(b)
	mr.runLoop(b, "sw_loop")
}

func BenchmarkPageWalk(b *testing.B) {
	mr := newMicroRig(b)
	r := mr.r
	c := r.M.Core(0)
	if err := r.K.Schedule(c, r.Host.Proc); err != nil {
		b.Fatal(err)
	}
	uv, err := r.Host.Proc.Mmap(1, isa.PermRW)
	if err != nil {
		b.Fatal(err)
	}
	s := mr.inner.SECS()
	if err := r.M.EEnter(c, s, s.TCSs()[0].Vaddr, false); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 8)
	if err := c.ReadInto(uv, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.M.INVLPG(c, uv)
		if err := c.ReadInto(uv, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := r.M.EExit(c, true); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEPCFault is one evict-and-reload round trip of an outer-enclave
// heap page: EBLOCK, ETRACK with shootdowns, EWB, then the faulting read's
// #PF, ELDU, and remap.
func BenchmarkEPCFault(b *testing.B) {
	mr := newMicroRig(b)
	r := mr.r
	c := r.M.Core(0)
	if err := r.K.Schedule(c, r.Host.Proc); err != nil {
		b.Fatal(err)
	}
	s := mr.outer.SECS()
	heap := mr.outer.Image().HeapBase()
	if err := r.M.EEnter(c, s, s.TCSs()[0].Vaddr, false); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 8)
	if err := c.ReadInto(heap, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.K.Driver.EvictPage(r.Host.Proc, s, heap); err != nil {
			b.Fatal(err)
		}
		if err := c.ReadInto(heap, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := r.M.EExit(c, true); err != nil {
		b.Fatal(err)
	}
}

// enterSolo builds a machine from cfg, loads one enclave with a heap of
// heapPages pages, and enters it on core 0 from the host process. It
// returns the rig, the core and the heap base; the caller exits with
// r.M.EExit.
func enterSolo(b *testing.B, cfg sgx.Config, name string, heapPages int) (*Rig, *sgx.Core, isa.VAddr) {
	b.Helper()
	r, err := NewRig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	img := sdk.NewImage(name, 0x3000_0000,
		sdk.Layout{CodePages: 1, DataPages: 1, HeapPages: heapPages, NumTCS: 1})
	e, err := r.LoadSolo(img)
	if err != nil {
		b.Fatal(err)
	}
	c := r.M.Core(0)
	if err := r.K.Schedule(c, r.Host.Proc); err != nil {
		b.Fatal(err)
	}
	s := e.SECS()
	if err := r.M.EEnter(c, s, s.TCSs()[0].Vaddr, false); err != nil {
		b.Fatal(err)
	}
	return r, c, img.HeapBase()
}

// BenchmarkEPCFaultUnderPressure is one demand fault through the paging
// daemon: an enclave whose heap is twice the EPC reads the next heap page
// each iteration, so every read faults, makeRoom's first pass (which skips
// the faulting enclave) finds no other owner, and its second pass evicts
// one of the enclave's own pages with EBLOCK, ETRACK, shootdowns and EWB
// before ELDU reloads the page read.
func BenchmarkEPCFaultUnderPressure(b *testing.B) {
	cfg := SmallMachine()
	cfg.Phys.PRMSize = 1 << 20 // 256 EPC pages
	heapPages := 2 * int(cfg.Phys.PRMSize/isa.PageSize)
	r, c, heap := enterSolo(b, cfg, "mb-thrash", heapPages)
	dst := make([]byte, 8)
	page := func(i int) isa.VAddr { return heap + isa.VAddr(i%heapPages)*isa.PageSize }
	// One warm sweep leaves the EPC full of the heap's second half.
	for i := 0; i < heapPages; i++ {
		if err := c.ReadInto(page(i), dst); err != nil {
			b.Fatal(err)
		}
	}
	ewb := r.M.Rec.Get(trace.EvEWB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadInto(page(i), dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := r.M.Rec.Get(trace.EvEWB) - ewb; n != int64(b.N) {
		b.Fatalf("%d reads evicted %d pages, want one each", b.N, n)
	}
	if err := r.M.EExit(c, true); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLLCMiss is one 256 B write into an enclave heap twice the LLC,
// swept in address order so every line misses: four fills, each an MEE
// decrypt, and four dirty victims written back, each an MEE encrypt.
func BenchmarkLLCMiss(b *testing.B) {
	heapBytes := 2 * SmallMachine().LLC.SizeBytes
	r, c, heap := enterSolo(b, SmallMachine(), "mb-stream", heapBytes/isa.PageSize)
	buf := make([]byte, 256)
	// One warm sweep seals every heap line in DRAM and leaves the LLC full
	// of dirty heap lines.
	for off := 0; off < heapBytes; off += len(buf) {
		if err := c.Write(heap+isa.VAddr(off), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for i := 0; i < b.N; i++ {
		if err := c.Write(heap+isa.VAddr(off), buf); err != nil {
			b.Fatal(err)
		}
		off = (off + len(buf)) % heapBytes
	}
	b.StopTimer()
	if err := r.M.EExit(c, true); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSQLQuery is one nested YCSB-A query (50% SELECT, 50% UPDATE of a
// 100-byte value) through Table VI's service: the client enclave parses the
// query, encrypts its text values and formats it again, and the shared
// engine parses and executes it behind an n_ocall.
func BenchmarkSQLQuery(b *testing.B) {
	r, err := NewRig(SmallMachine())
	if err != nil {
		b.Fatal(err)
	}
	s, err := BuildSQLService(r, true, false)
	if err != nil {
		b.Fatal(err)
	}
	mix := ycsb.Mix{Name: "YCSB-A", SelectP: 50, UpdateP: 50}
	w := ycsb.Generate(mix, ycsb.Config{Records: 1000, Operations: 1000, FieldLen: 100}, rand.New(rand.NewSource(1)))
	for _, q := range w.Setup {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(w.Queries[i%len(w.Queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewMachine is one machine construction: the DRAM frame table, the
// MEE's per-page table, the LLC's line array and the cores. B/op is the
// host memory a machine costs before it runs anything.
func BenchmarkNewMachine(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  sgx.Config
	}{{"SmallConfig", sgx.SmallConfig()}, {"DefaultConfig", sgx.DefaultConfig()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgx.New(tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
