// Package cache models the processor's last-level cache as a set-associative
// write-back cache holding plaintext cachelines.
//
// Its role in the simulation is architectural, not micro-architectural: data
// resident in the cache lives inside the CPU package boundary in plaintext,
// so reads and writes that hit skip the memory encryption engine entirely.
// This is the mechanism behind the paper's Figure 11 — the outer-enclave
// communication channel runs at cache speed while the footprint fits in the
// LLC, because "the encryption by MEE is not invoked as the data exist in
// plaintext within the CPU boundary".
package cache

import (
	"fmt"
	"sync"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/trace"
)

// Backend is the next level of the memory hierarchy (the MEE in front of
// DRAM). Lines crossing it are subject to protection, and the work is
// charged to tab, the tab of the cache operation that moved them, which
// bills that operation's payer.
type Backend interface {
	// ReadLine fetches the 64-byte line at the (line-aligned) address into
	// dst, which is LineSize bytes long and owned by the caller. It may
	// return an integrity fault, leaving dst's contents unspecified.
	ReadLine(p isa.PAddr, dst []byte, tab *trace.Tab) error
	// WriteLine stores the 64-byte line at the (line-aligned) address.
	WriteLine(p isa.PAddr, data []byte, tab *trace.Tab) error
}

// line is one way of a set, 80 bytes. tag is the line index (paddr >>
// LineShift) plus one, so the zero line is invalid; lru is the tick of the
// line's last access shifted left by one, with the dirty bit in bit 0.
type line struct {
	tag  uint64
	lru  uint64
	data [isa.LineSize]byte
}

// dirty is line.lru's low bit: the line differs from the backend's copy.
const dirty = 1

// addr returns the physical address of a valid line.
func (l *line) addr() isa.PAddr { return isa.PAddr((l.tag - 1) << isa.LineShift) }

// Config sizes the cache.
type Config struct {
	// SizeBytes is the total capacity. Must be a multiple of Ways*LineSize.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// DefaultConfig models the 8 MiB 16-way LLC of the paper's i7-7700 testbed.
func DefaultConfig() Config { return Config{SizeBytes: 8 << 20, Ways: 16} }

// Cache is a set-associative write-back LLC. Safe for concurrent use: the
// machine's data-access path runs under a shared (read) lock so cores
// translate in parallel, and the cache — the one mutable structure on that
// path — serializes line operations internally. The MEE backend is only
// reachable through here or under the machine's exclusive lock, so the
// internal mutex covers it too.
type Cache struct {
	mu      sync.Mutex
	backend Backend
	rec     *trace.Recorder
	sets    [][]line
	nsets   uint64
	tick    uint64
	// fetch receives a missing line before fill picks its victim.
	fetch [isa.LineSize]byte //nescheck:guard mu
	// tab collects every LLC and MEE charge of the operation in progress;
	// the operation settles it before it unlocks (see settle).
	tab trace.Tab //nescheck:guard mu

	// Enabled can be cleared to model an uncached (write-through to MEE)
	// path; used by ablation benches. Set before workloads run.
	Enabled bool
}

// New builds a cache over the backend. rec may be nil.
func New(cfg Config, backend Backend, rec *trace.Recorder) (*Cache, error) {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid config %+v", cfg)
	}
	lines := cfg.SizeBytes / isa.LineSize
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d ways", cfg.SizeBytes, cfg.Ways)
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	sets := make([][]line, nsets)
	backing := make([]line, lines)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{backend: backend, rec: rec, sets: sets, nsets: uint64(nsets), Enabled: true}, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config, backend Backend, rec *trace.Recorder) *Cache {
	c, err := New(cfg, backend, rec)
	if err != nil {
		panic(err)
	}
	return c
}

// settle publishes the operation's tab to the recorder; without one the tab
// is dropped. Each operation names its payer on the tab after locking — the
// cache itself runs below the protection context — and defers settle after
// its deferred unlock, so the tab settles before the unlock on every path,
// panics included.
func (c *Cache) settle() {
	if c.rec == nil {
		c.tab = trace.Tab{}
		return
	}
	c.rec.Settle(&c.tab)
}

// lookup returns the way holding the line index, or nil.
func (c *Cache) lookup(idx uint64) *line {
	set := c.sets[idx&(c.nsets-1)]
	for i := range set {
		if set[i].tag == idx+1 {
			return &set[i]
		}
	}
	return nil
}

func (c *Cache) access(p isa.PAddr, write bool) (*line, error) {
	idx := uint64(p) >> isa.LineShift
	if !c.Enabled {
		// Uncached mode: synthesize a transient line per access.
		l := &line{tag: idx + 1}
		if err := c.backend.ReadLine(p.LineBase(), l.data[:], &c.tab); err != nil {
			return nil, err
		}
		return l, nil
	}
	c.tick++
	var mark uint64
	if write {
		mark = dirty
	}
	// One pass over the set finds the line, or else the victim: the first
	// invalid way, else the least recently used, the first on ties.
	set := c.sets[idx&(c.nsets-1)]
	v := &set[0]
	for i := range set {
		l := &set[i]
		if l.tag == idx+1 {
			c.tab.Charge(trace.EvLLCHit, trace.CostLLCHit)
			l.lru = c.tick<<1 | l.lru&dirty | mark
			return l, nil
		}
		if v.tag != 0 && (l.tag == 0 || l.lru>>1 < v.lru>>1) {
			v = l
		}
	}
	c.tab.Charge(trace.EvLLCMiss, trace.CostDRAMAccess)
	// The line is fetched before the victim is written back, so a fetch
	// that faults leaves the victim in place.
	if err := c.backend.ReadLine(isa.PAddr(idx<<isa.LineShift), c.fetch[:], &c.tab); err != nil {
		return nil, err
	}
	if v.tag != 0 && v.lru&dirty != 0 {
		if err := c.backend.WriteLine(v.addr(), v.data[:], &c.tab); err != nil {
			return nil, err
		}
	}
	v.tag = idx + 1
	v.lru = c.tick<<1 | mark
	v.data = c.fetch
	return v, nil
}

// Read copies n bytes at physical address p through the cache.
func (c *Cache) Read(p isa.PAddr, n int, payer trace.Payer) ([]byte, error) {
	out := make([]byte, n)
	if err := c.ReadInto(p, out, payer); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst from physical address p through the cache. The
// hit/miss and MEE charges bill to payer.
func (c *Cache) ReadInto(p isa.PAddr, dst []byte, payer trace.Payer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tab.Payer = payer
	defer c.settle()
	for off := 0; off < len(dst); {
		cur := p + isa.PAddr(off)
		l, err := c.access(cur, false)
		if err != nil {
			return err
		}
		lo := int(cur.Offset() & isa.LineMask)
		nn := copy(dst[off:], l.data[lo:])
		off += nn
	}
	return nil
}

// Write stores b at physical address p through the cache, billing payer.
func (c *Cache) Write(p isa.PAddr, b []byte, payer trace.Payer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tab.Payer = payer
	defer c.settle()
	for off := 0; off < len(b); {
		cur := p + isa.PAddr(off)
		l, err := c.access(cur, true)
		if err != nil {
			return err
		}
		lo := int(cur.Offset() & isa.LineMask)
		nn := copy(l.data[lo:], b[off:])
		if !c.Enabled {
			// Uncached: write through immediately.
			if err := c.backend.WriteLine(cur.LineBase(), l.data[:], &c.tab); err != nil {
				return err
			}
		}
		off += nn
	}
	return nil
}

// FlushAll writes back every dirty line and invalidates the cache (WBINVD).
func (c *Cache) FlushAll(payer trace.Payer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tab.Payer = payer
	defer c.settle()
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.tag != 0 && l.lru&dirty != 0 {
				if err := c.backend.WriteLine(l.addr(), l.data[:], &c.tab); err != nil {
					return err
				}
			}
			l.tag, l.lru = 0, 0
		}
	}
	return nil
}

// FlushLine writes back and invalidates the line containing p (CLFLUSH).
func (c *Cache) FlushLine(p isa.PAddr, payer trace.Payer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tab.Payer = payer
	defer c.settle()
	return c.flushLineLocked(p)
}

func (c *Cache) flushLineLocked(p isa.PAddr) error {
	l := c.lookup(uint64(p) >> isa.LineShift)
	if l == nil {
		return nil
	}
	if l.lru&dirty != 0 {
		if err := c.backend.WriteLine(p.LineBase(), l.data[:], &c.tab); err != nil {
			return err
		}
	}
	l.tag, l.lru = 0, 0
	return nil
}

// InvalidateRange drops every line overlapping [p, p+n) WITHOUT writing
// dirty data back — the path used when the underlying page is being
// destroyed and its contents must not be recreated in DRAM.
func (c *Cache) InvalidateRange(p isa.PAddr, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for cur := p.LineBase(); cur < p+isa.PAddr(n); cur += isa.LineSize {
		if l := c.lookup(uint64(cur) >> isa.LineShift); l != nil {
			l.tag, l.lru = 0, 0
		}
	}
}

// FlushRange flushes every line overlapping [p, p+n).
func (c *Cache) FlushRange(p isa.PAddr, n int, payer trace.Payer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tab.Payer = payer
	defer c.settle()
	for cur := p.LineBase(); cur < p+isa.PAddr(n); cur += isa.LineSize {
		if err := c.flushLineLocked(cur); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports occupancy for tests.
func (c *Cache) Stats() (validLines, dirtyLines int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for si := range c.sets {
		for wi := range c.sets[si] {
			if l := &c.sets[si][wi]; l.tag != 0 {
				validLines++
				if l.lru&dirty != 0 {
					dirtyLines++
				}
			}
		}
	}
	return
}
