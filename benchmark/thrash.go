package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"nestedenclave"
	"nestedenclave/internal/cache"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// epc-thrash drives EPC paging (§IV-E): an inner enclave touches random pages
// of its outer enclave's heap, which is twice the size of the EPC. Each touch
// reads the stamp the page's previous touch left and writes a new one; the
// benchmark checks every stamp read against its oracle, so data that does
// not survive an EWB/ELDU round trip is caught.

const (
	thrashPages   = 2048 // 8 MiB outer heap
	thrashTouches = 8
	// thrashPool is the number of generated requests; runs cycle through
	// them, with the request number folded into each stamp.
	thrashPool = 4096
	// thrashFill is the number of pages one preload call stamps.
	thrashFill = 64
	touchBytes = 12 // uint32 page, uint64 stamp
)

// thrashMachine has 4 MiB of EPC (1024 pages).
func thrashMachine() sgx.Config {
	return sgx.Config{
		Cores: 4,
		Phys:  phys.Layout{DRAMSize: 16 << 20, PRMBase: 8 << 20, PRMSize: 4 << 20},
		LLC:   cache.Config{SizeBytes: 1 << 20, Ways: 16},
	}
}

type thrashInputs struct {
	init   []uint64 // preloaded stamp per page
	pages  []uint32 // thrashPool × thrashTouches
	stamps []uint64
}

type thrashService struct {
	sys   *nestedenclave.System
	inner *nestedenclave.Enclave
	base  isa.VAddr
	in    *thrashInputs
	cur   []uint64 // oracle: the stamp each page holds now
	next  uint64
	args  []byte
	tr    *tracer
}

func prepareThrash(seed int64) (func() (service, error), error) {
	rng := rand.New(rand.NewSource(seed))
	in := &thrashInputs{
		init:   make([]uint64, thrashPages),
		pages:  make([]uint32, thrashPool*thrashTouches),
		stamps: make([]uint64, thrashPool*thrashTouches),
	}
	for i := range in.init {
		in.init[i] = rng.Uint64() | 1 // never the zero a fresh page holds
	}
	for i := range in.pages {
		in.pages[i] = uint32(rng.Intn(thrashPages))
		in.stamps[i] = rng.Uint64()
	}
	return func() (service, error) { return setupThrash(in) }, nil
}

func setupThrash(in *thrashInputs) (service, error) {
	sys, err := nestedenclave.NewSystemErr(nestedenclave.Options{Machine: thrashMachine()})
	if err != nil {
		return nil, err
	}
	s := &thrashService{sys: sys, in: in, cur: make([]uint64, thrashPages), args: make([]byte, thrashTouches*touchBytes)}
	outer := nestedenclave.NewImage("heap-outer", 0x4000_0000,
		nestedenclave.Layout{CodePages: 2, DataPages: 2, HeapPages: thrashPages, NumTCS: 2})
	inner := nestedenclave.NewImage("toucher", 0x1000_0000, nestedenclave.DefaultLayout())
	inner.RegisterECall("touch", s.touch)
	// The inner enclave loads first: ECREATE has no EPC-pressure path, so
	// once the outer heap fills the EPC no further SECS can be created.
	encs, err := loadNested(sys, outer, []*nestedenclave.Image{inner, outer})
	if err != nil {
		return nil, err
	}
	s.inner, s.base = encs[0], outer.HeapBase()
	// Preload: stamp every page, checking that each still reads as zero.
	fill := make([]byte, thrashFill*touchBytes)
	for p := 0; p < thrashPages; p += thrashFill {
		for i := 0; i < thrashFill; i++ {
			binary.LittleEndian.PutUint32(fill[i*touchBytes:], uint32(p+i))
			binary.LittleEndian.PutUint64(fill[i*touchBytes+4:], in.init[p+i])
		}
		if err := s.call(fill); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return s, nil
}

func (s *thrashService) recorder() *trace.Recorder { return s.sys.Recorder() }

func (s *thrashService) do(_ int, tr *tracer) error {
	s.tr = tr
	r := s.next
	s.next++
	i := int(r%thrashPool) * thrashTouches
	for t := 0; t < thrashTouches; t++ {
		binary.LittleEndian.PutUint32(s.args[t*touchBytes:], s.in.pages[i+t])
		binary.LittleEndian.PutUint64(s.args[t*touchBytes+4:], s.in.stamps[i+t]^r<<32)
	}
	tr.begin(kECall)
	err := s.call(s.args)
	tr.end()
	if err != nil {
		return fmt.Errorf("request %d: %w", r, err)
	}
	return nil
}

// call runs one touch ecall and checks every stamp it read against the
// oracle, which it then advances to the stamps written.
func (s *thrashService) call(args []byte) error {
	out, err := s.inner.ECall("touch", args)
	if err != nil {
		return err
	}
	n := len(args) / touchBytes
	if len(out) != 8*n {
		return fmt.Errorf("touch returned %d bytes for %d pages", len(out), n)
	}
	var bad error
	for t := 0; t < n; t++ {
		page := binary.LittleEndian.Uint32(args[t*touchBytes:])
		if got := binary.LittleEndian.Uint64(out[t*8:]); got != s.cur[page] && bad == nil {
			bad = fmt.Errorf("page %d holds stamp %x, want %x", page, got, s.cur[page])
		}
		s.cur[page] = binary.LittleEndian.Uint64(args[t*touchBytes+4:])
	}
	return bad
}

// touch reads each named page's stamp and writes the new one, returning the
// stamps read.
func (s *thrashService) touch(env *nestedenclave.Env, args []byte) ([]byte, error) {
	n := len(args) / touchBytes
	out := make([]byte, 0, 8*n)
	for t := 0; t < n; t++ {
		a := args[t*touchBytes:]
		at := s.base + isa.VAddr(binary.LittleEndian.Uint32(a))*isa.PageSize
		s.tr.beginAccess()
		old, err := env.Read(at, 8)
		s.tr.end()
		if err != nil {
			return nil, err
		}
		s.tr.beginAccess()
		err = env.Write(at, a[4:touchBytes])
		s.tr.end()
		if err != nil {
			return nil, err
		}
		out = append(out, old...)
	}
	return out, nil
}
