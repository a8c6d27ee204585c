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
// physical attacker cannot forge): one table per PRM page, made on the page's
// first writeback.
package mee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/trace"
)

// lineMeta is one PRM line's integrity state: the version its nonce
// carries, with the written bit (whether the line holds ciphertext at all)
// in the word's top bit, and the GCM tag of its current ciphertext.
type lineMeta struct {
	version uint64
	tag     [16]byte
}

const (
	// written is lineMeta.version's top bit: the line holds ciphertext.
	written = 1 << 63
	// maxVersion bounds a line's version: its bits 32-55 ride in nonce
	// bytes 5-7 (see nonceFor), so a line seals at most 2^56-1 times.
	maxVersion = 1<<56 - 1
	// maxLines bounds the DRAM's line count, so that every line index
	// leaves nonce bytes 5-7 zero for the version.
	maxLines = 1 << 40
)

// pageMeta is the integrity state of every line of one PRM page.
type pageMeta [isa.PageSize / isa.LineSize]lineMeta

// Engine is the memory encryption engine. It implements cache.Backend.
//
// Not safe for concurrent use: the nonce and ciphertext scratch buffers are
// shared by every line operation. Every ReadLine and WriteLine runs under
// the LLC's mutex (the cache is the engine's only line caller), and DropPage
// runs under the machine's write lock, which excludes every access.
type Engine struct {
	mem  *phys.Memory
	aead cipher.AEAD
	prm  isa.PAddr // PRM base
	// pages has one slot per PRM page, nil until the page's first
	// writeback; the line at p is pages[(p-prm)>>PageShift][p.Offset()>>LineShift].
	pages []*pageMeta

	nonce [12]byte                // scratch: the current line's nonce
	buf   [isa.LineSize + 16]byte // scratch: ciphertext plus tag

	// Enabled can be cleared to model a machine without memory encryption
	// (plaintext PRM), used by tests that contrast physical attacks.
	Enabled bool

	// Disturb, when set, receives each protected line's ciphertext as it is
	// fetched from DRAM and may flip its bits. It runs before integrity
	// verification, so every flip surfaces as a detected machine check,
	// never silent corruption. The machine sets it to its platform's
	// Disturb (sgx.Machine.SetHostile).
	Disturb func(ct []byte)

	// Poison, when set, is called with the physical address of a line that
	// failed integrity verification, letting the machine contain the fault
	// to the owning enclave instead of aborting. Called on the memory
	// path, i.e. under the machine lock.
	Poison func(p isa.PAddr)
}

// New builds an engine over the DRAM with a fresh random platform key. It
// refuses a DRAM of more than 2^40 lines, whose line indices would share
// nonce bytes with the version.
func New(mem *phys.Memory) (*Engine, error) {
	if lines := mem.Size() >> isa.LineShift; lines > maxLines {
		return nil, fmt.Errorf("mee: %d lines of DRAM, at most %d have unique nonces", lines, uint64(maxLines))
	}
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
	l := mem.Layout()
	return &Engine{
		mem: mem, aead: aead,
		prm:     l.PRMBase,
		pages:   make([]*pageMeta, l.PRMSize>>isa.PageShift),
		Enabled: true,
	}, nil
}

// MustNew is New panicking on error, for tests and fixed-configuration
// callers where key-generation failure is unrecoverable anyway.
func MustNew(mem *phys.Memory) *Engine {
	e, err := New(mem)
	if err != nil {
		panic(err)
	}
	return e
}

// nonceFor writes the nonce of line idx at version into the engine's nonce
// buffer and returns it: the index in bytes 0-4 (New bounds it below 2^40),
// version bits 32-55 in bytes 5-7 and bits 0-31 in bytes 8-11, so no two
// (line, version) pairs below maxVersion share a nonce. Below version 2^32
// bytes 5-7 are zero.
func (e *Engine) nonceFor(idx, version uint64) []byte {
	n := e.nonce[:]
	binary.LittleEndian.PutUint64(n[:8], idx|version>>32<<40)
	binary.LittleEndian.PutUint32(n[8:], uint32(version))
	return n
}

// Memory exposes the underlying DRAM (the physical attacker's view).
func (e *Engine) Memory() *phys.Memory { return e.mem }

// WriteLine implements cache.Backend: a dirty-line writeback. PRM lines are
// encrypted and their integrity metadata versioned; others stored raw. The
// line work is charged to tab, the calling cache operation's tab: the
// engine itself runs below the protection context.
func (e *Engine) WriteLine(p isa.PAddr, data []byte, tab *trace.Tab) error {
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
	pi := (p - e.prm) >> isa.PageShift
	if e.pages[pi] == nil {
		e.pages[pi] = new(pageMeta)
	}
	m := &e.pages[pi][p.Offset()>>isa.LineShift]
	v := m.version&^written + 1
	if v > maxVersion {
		return fmt.Errorf("mee: line %#x has used all %d versions of its nonce", uint64(p), uint64(maxVersion))
	}
	m.version = v | written
	ct := e.aead.Seal(e.buf[:0], e.nonceFor(uint64(p)>>isa.LineShift, v), data, nil)
	copy(m.tag[:], ct[isa.LineSize:])
	e.mem.Write(p, ct[:isa.LineSize])
	tab.Charge(trace.EvMEEEncrypt, trace.CostMEELine)
	return nil
}

// ReadLine implements cache.Backend: a line fetch into dst. PRM lines are
// decrypted and integrity-verified; tampering raises a machine-check fault.
// The line work is charged to tab, as for WriteLine.
func (e *Engine) ReadLine(p isa.PAddr, dst []byte, tab *trace.Tab) error {
	if len(dst) != isa.LineSize {
		return fmt.Errorf("mee: fetch into %d bytes, want %d", len(dst), isa.LineSize)
	}
	if p.Offset()&isa.LineMask != 0 {
		return fmt.Errorf("mee: unaligned line fetch at %#x", uint64(p))
	}
	if !e.mem.InPRM(p) || !e.Enabled {
		e.mem.ReadInto(p, dst)
		return nil
	}
	var m *lineMeta
	if pm := e.pages[(p-e.prm)>>isa.PageShift]; pm != nil {
		m = &pm[p.Offset()>>isa.LineShift]
	}
	if m == nil || m.version&written == 0 {
		// Never written through the engine: architecturally the content of a
		// fresh EPC page is undefined; the simulator returns zeroes (EPC
		// pages are zeroed by EADD/EAUG before use anyway).
		clear(dst)
		return nil
	}
	ct := e.buf[:isa.LineSize]
	e.mem.ReadInto(p, ct)
	ct = append(ct, m.tag[:]...)
	if e.Disturb != nil {
		e.Disturb(ct[:isa.LineSize])
	}
	if _, err := e.aead.Open(dst[:0], e.nonceFor(uint64(p)>>isa.LineShift, m.version&^written), ct, nil); err != nil {
		tab.Charge(trace.EvFaultMC, 0)
		if e.Poison != nil {
			e.Poison(p)
		}
		return isa.MC("MEE integrity failure on line %#x", uint64(p))
	}
	tab.Charge(trace.EvMEEDecrypt, trace.CostMEELine)
	return nil
}

// DropPage marks every line of the PRM page at p unwritten, so reads of the
// recycled page see zeroes instead of failing integrity. Each line keeps its
// version, clearing only the written bit: its next writeback seals under a
// nonce the page's previous contents never used (GCM under a repeated nonce
// and key leaks the XOR of the two plaintexts). A no-op outside PRM.
func (e *Engine) DropPage(p isa.PAddr) {
	if !e.mem.InPRM(p) {
		return
	}
	if pm := e.pages[(p-e.prm)>>isa.PageShift]; pm != nil {
		for i := range pm {
			pm[i].version &^= written
		}
	}
}
