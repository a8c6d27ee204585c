package mee

import (
	"bytes"
	"errors"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/trace"
)

// fuzzLayout is a small DRAM so each fuzz execution builds a fresh engine
// cheaply: PRM pages at 16 and 20 KiB, and ordinary memory below.
var fuzzLayout = phys.Layout{DRAMSize: 32 << 10, PRMBase: 16 << 10, PRMSize: 8 << 10}

// fuzzLine is one line the fuzzer drives, with the model's view of it.
type fuzzLine struct {
	p       isa.PAddr
	prm     bool
	pt      [isa.LineSize]byte // last plaintext written (zero if none)
	written bool               // PRM: holds ciphertext sealed by the engine
	flip    [isa.LineSize]byte // PRM: XOR the attacker applied since the write
}

func (l *fuzzLine) tampered() bool { return l.flip != [isa.LineSize]byte{} }

// FuzzMEETamper drives the engine as a physical attacker meets it. Each
// three fuzz bytes (op, a, b) pick an operation and a line: a writeback of a
// pattern from a and b, a fetch, a DRAM byte flip at offset a by b, or
// DropPage on the line's page. The lines are two on one PRM page, the last
// line of a second PRM page, and one non-PRM line. A fetch of a line the
// attacker has not changed since its last write returns exactly the model's
// bytes (zeroes if never written or dropped; a non-PRM line carries its
// flips in the clear), a fetch of a changed, written PRM line is a machine
// check, and nothing panics.
func FuzzMEETamper(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		mem := phys.MustNew(fuzzLayout)
		e := MustNew(mem)
		tab := &trace.Tab{}
		prm := fuzzLayout.PRMBase
		lines := []*fuzzLine{
			{p: prm, prm: true},
			{p: prm + isa.LineSize, prm: true},
			{p: prm + 2*isa.PageSize - isa.LineSize, prm: true},
			{p: 2 * isa.PageSize},
		}
		got := make([]byte, isa.LineSize)
		for i := 0; i+3 <= len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			l := lines[int(op>>2)%len(lines)]
			switch op & 3 {
			case 0: // writeback
				var data [isa.LineSize]byte
				for j := range data {
					data[j] = a + byte(j)*b
				}
				if err := e.WriteLine(l.p, data[:], tab); err != nil {
					t.Fatalf("op %d: writeback of %#x: %v", i/3, uint64(l.p), err)
				}
				l.pt, l.written, l.flip = data, true, [isa.LineSize]byte{}
			case 1: // fetch
				err := e.ReadLine(l.p, got, tab)
				if l.prm && l.written && l.tampered() {
					var fault *isa.Fault
					if !errors.As(err, &fault) || fault.Class != isa.FaultMC {
						t.Fatalf("op %d: fetch of tampered line %#x: err %v, want a machine check", i/3, uint64(l.p), err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("op %d: fetch of %#x: %v", i/3, uint64(l.p), err)
				}
				if !bytes.Equal(got, l.pt[:]) {
					t.Fatalf("op %d: fetch of %#x = %x, want %x", i/3, uint64(l.p), got, l.pt)
				}
			case 2: // physical attacker flips a DRAM byte
				off := int(a) % isa.LineSize
				mem.TamperByte(l.p+isa.PAddr(off), b)
				switch {
				case !l.prm:
					l.pt[off] ^= b
				case l.written:
					l.flip[off] ^= b
				}
			case 3: // the page is recycled
				e.DropPage(l.p)
				for _, m := range lines {
					if m.prm && m.p.PageBase() == l.p.PageBase() {
						*m = fuzzLine{p: m.p, prm: true}
					}
				}
			}
		}
	})
}
