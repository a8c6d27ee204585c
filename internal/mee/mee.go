// Package mee models SGX's Memory Encryption Engine: the hardware block
// between the last-level cache and DRAM that encrypts and integrity-protects
// every cacheline belonging to the Processor Reserved Memory.
//
// Behaviour reproduced from the paper's background (§II-B) and Gueron's MEE
// description:
//
//   - PRM-resident lines exist only as ciphertext in DRAM; encryption is at
//     cacheline (64 B) granularity with a per-line version counter, so a
//     physical attacker reading the bus sees neither plaintext nor repeats.
//   - A hash-tree-like structure validates integrity: any DRAM tampering of
//     a protected line is detected on the next fetch and raises a machine
//     check (drop-and-lock in real hardware; a FaultMC here).
//   - The engine uses one platform key shared by all enclaves — isolation
//     between enclaves is the access-control mechanism's job, not the MEE's
//     (paper §IV-F). Nested enclave therefore adds no MEE complexity.
//   - Non-PRM lines pass through untouched.
//
// The implementation encrypts each line with AES-GCM under a per-boot random
// key, using the line index and a monotonically increasing version counter
// as the nonce, and keeps the 16-byte tags and counters in engine-private
// state (modelling the on-chip tree root plus stolen metadata memory that the
// physical attacker cannot forge).
package mee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/trace"
)

type lineMeta struct {
	version uint64
	tag     [16]byte
	written bool
}

// Engine is the memory encryption engine. It implements cache.Backend.
// Not safe for concurrent use; the machine serializes memory operations.
type Engine struct {
	mem  *phys.Memory
	rec  *trace.Recorder
	aead cipher.AEAD
	meta map[uint64]*lineMeta // line index -> integrity metadata

	// Enabled can be cleared to model a machine without memory encryption
	// (plaintext PRM), used by tests that contrast physical attacks.
	Enabled bool

	// Chaos, when set, injects DRAM bit flips into protected lines as they
	// are fetched — before integrity verification, so every flip surfaces
	// as a detected machine check, never silent corruption.
	Chaos *chaos.Injector

	// Poison, when set, is called with the physical address of a line that
	// failed integrity verification, letting the machine contain the fault
	// to the owning enclave instead of aborting. Called on the memory
	// path, i.e. under the machine lock.
	Poison func(p isa.PAddr)
}

// New builds an engine over the DRAM with a fresh random platform key.
// rec may be nil.
func New(mem *phys.Memory, rec *trace.Recorder) (*Engine, error) {
	key := make([]byte, 16)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("mee: key generation: %w", err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("mee: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("mee: gcm: %w", err)
	}
	return &Engine{mem: mem, rec: rec, aead: aead, meta: make(map[uint64]*lineMeta), Enabled: true}, nil
}

// MustNew is New panicking on error, for tests and fixed-configuration
// callers where key-generation failure is unrecoverable anyway.
func MustNew(mem *phys.Memory, rec *trace.Recorder) *Engine {
	e, err := New(mem, rec)
	if err != nil {
		panic(err)
	}
	return e
}

// charge bills MEE line work to the payer the cache named — the engine
// itself runs below the protection context.
func (e *Engine) charge(ev trace.Event, cost int64, payer trace.Payer) {
	if e.rec != nil {
		e.rec.ChargeTo(payer.EID, payer.Core, ev, cost)
	}
}

func (e *Engine) nonce(idx, version uint64) []byte {
	n := make([]byte, 12)
	binary.LittleEndian.PutUint64(n[:8], idx)
	binary.LittleEndian.PutUint32(n[8:], uint32(version))
	// Version counters exceed 2^32 only after 4 billion writebacks of a
	// single line; fold the high bits in to keep nonces unique regardless.
	n[11] ^= byte(version >> 32)
	return n
}

// Memory exposes the underlying DRAM (the physical attacker's view).
func (e *Engine) Memory() *phys.Memory { return e.mem }

// WriteLine implements cache.Backend: a dirty-line writeback. PRM lines are
// encrypted and their integrity metadata versioned; others stored raw.
func (e *Engine) WriteLine(p isa.PAddr, data []byte, payer trace.Payer) error {
	if len(data) != isa.LineSize {
		return fmt.Errorf("mee: writeback of %d bytes, want %d", len(data), isa.LineSize)
	}
	if p.Offset()&isa.LineMask != 0 {
		return fmt.Errorf("mee: unaligned line writeback at %#x", uint64(p))
	}
	if !e.mem.InPRM(p) || !e.Enabled {
		e.mem.Write(p, data)
		return nil
	}
	idx := uint64(p) >> isa.LineShift
	m := e.meta[idx]
	if m == nil {
		m = &lineMeta{}
		e.meta[idx] = m
	}
	m.version++
	m.written = true
	ct := e.aead.Seal(nil, e.nonce(idx, m.version), data, nil)
	copy(m.tag[:], ct[isa.LineSize:])
	e.mem.Write(p, ct[:isa.LineSize])
	e.charge(trace.EvMEEEncrypt, trace.CostMEELine, payer)
	return nil
}

// ReadLine implements cache.Backend: a line fetch. PRM lines are decrypted
// and integrity-verified; tampering raises a machine-check fault.
func (e *Engine) ReadLine(p isa.PAddr, payer trace.Payer) ([]byte, error) {
	if p.Offset()&isa.LineMask != 0 {
		return nil, fmt.Errorf("mee: unaligned line fetch at %#x", uint64(p))
	}
	raw := e.mem.Read(p, isa.LineSize)
	if !e.mem.InPRM(p) || !e.Enabled {
		return raw, nil
	}
	idx := uint64(p) >> isa.LineShift
	m := e.meta[idx]
	if m == nil || !m.written {
		// Never written through the engine: architecturally the content of a
		// fresh EPC page is undefined; the simulator returns zeroes (EPC
		// pages are zeroed by EADD/EAUG before use anyway).
		return make([]byte, isa.LineSize), nil
	}
	ct := make([]byte, 0, isa.LineSize+16)
	ct = append(ct, raw...)
	ct = append(ct, m.tag[:]...)
	if e.Chaos.Fire(chaos.SiteDRAMBitFlip) {
		// A disturbance hit this line while it sat in DRAM. Flipping the
		// ciphertext (only on PRM lines, only before Open) guarantees the
		// integrity check catches it — the fault is always detected, never
		// silent corruption.
		bit := e.Chaos.Rand(uint64(isa.LineSize * 8))
		ct[bit/8] ^= 1 << (bit % 8)
	}
	pt, err := e.aead.Open(nil, e.nonce(idx, m.version), ct, nil)
	if err != nil {
		e.charge(trace.EvFaultMC, 0, payer)
		if e.Poison != nil {
			e.Poison(p)
		}
		return nil, isa.MC("MEE integrity failure on line %#x", uint64(p))
	}
	e.charge(trace.EvMEEDecrypt, trace.CostMEELine, payer)
	return pt, nil
}

// DropLine forgets the integrity metadata of the line containing p. Used when
// an EPC page is returned to the free pool so stale metadata does not abort
// reads of a recycled page.
func (e *Engine) DropLine(p isa.PAddr) {
	delete(e.meta, uint64(p)>>isa.LineShift)
}

// DropPage forgets integrity metadata for every line of the page at p.
func (e *Engine) DropPage(p isa.PAddr) {
	base := p.PageBase()
	for off := isa.PAddr(0); off < isa.PageSize; off += isa.LineSize {
		e.DropLine(base + off)
	}
}
