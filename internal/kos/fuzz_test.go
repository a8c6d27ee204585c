package kos_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/sgx"
)

// scriptReload is a kernel whose pager hands ELDU a mutated copy of each
// evicted page's genuine blob. Mutation kind%8 with parameters a and b:
//
//	0 Owner ^= a, 1 Vaddr ^= a, 2 Type ^= a, 3 Perms ^= a, 4 Slot ^= a,
//	5 Version += a, 6 Cipher byte a%len ^= b, 7 Cipher truncated to a%len.
type scriptReload struct {
	sgx.Honest
	kind    uint8
	a       uint64
	b       uint8
	genuine *sgx.EvictedPage // the blob last asked for
	handed  *sgx.EvictedPage // the copy handed to ELDU in its place
}

func (s *scriptReload) Reload(_ isa.EID, _ isa.VAddr, genuine *sgx.EvictedPage) *sgx.EvictedPage {
	s.genuine = genuine
	forged := *genuine
	forged.Cipher = append([]byte(nil), genuine.Cipher...)
	switch s.kind % 8 {
	case 0:
		forged.Owner ^= isa.EID(s.a)
	case 1:
		forged.Vaddr ^= isa.VAddr(s.a)
	case 2:
		forged.Type ^= isa.PageType(s.a)
	case 3:
		forged.Perms ^= isa.Perm(s.a)
	case 4:
		forged.Slot ^= s.a
	case 5:
		forged.Version += s.a
	case 6:
		if len(forged.Cipher) > 0 {
			forged.Cipher[s.a%uint64(len(forged.Cipher))] ^= s.b
		}
	case 7:
		if len(forged.Cipher) > 0 {
			forged.Cipher = forged.Cipher[:s.a%uint64(len(forged.Cipher))]
		}
	}
	s.handed = &forged
	return &forged
}

// FuzzELDUBlob evicts one page of an enclave and has a lying kernel hand
// ELDU a mutated copy of its sealed blob on the reload. Nothing may panic.
// An access through a changed blob must fail with a typed fault rather than
// return other bytes, and ELDU must refuse that blob with a #GP or a
// *sgx.BlobReplayError, leaving the free EPC page count where it was. Once
// the kernel is honest again, the page reloads its original bytes.
func FuzzELDUBlob(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, a uint64, b uint8) {
		m := epcMachine(16)
		k := kos.New(m)
		p := k.NewProcess()
		c := m.Core(0)
		if err := k.Schedule(c, p); err != nil {
			t.Fatal(err)
		}
		const base, pages = isa.VAddr(0x1000_0000), 2
		s := buildEnclaveN(t, k, p, base, pages)
		want := bytes.Repeat([]byte{1}, 8) // buildEnclaveN's fill of page 0
		read := func() ([]byte, error) {
			if err := m.EEnter(c, s, base+pages*isa.PageSize, false); err != nil {
				t.Fatalf("EENTER: %v", err)
			}
			got, err := c.Read(base, len(want))
			if eerr := m.EExit(c, true); eerr != nil {
				t.Fatalf("EEXIT: %v", eerr)
			}
			return got, err
		}
		if err := k.Driver.EvictPage(p, s, base); err != nil {
			t.Fatal(err)
		}
		h := &scriptReload{kind: kind, a: a, b: b}
		m.SetHostile(h)
		free := m.FreeEPCPages()
		got, err := read()
		switch {
		case err == nil:
			if !bytes.Equal(got, want) {
				t.Fatalf("access through a mutated blob read %x, want %x", got, want)
			}
			if h.handed == nil || !reflect.DeepEqual(h.handed, h.genuine) {
				t.Fatalf("ELDU accepted a mutated blob: %+v", h.handed)
			}
			return // the mutation changed nothing
		case !isa.IsFault(err, isa.FaultPF):
			t.Fatalf("access through a mutated blob: %v, want a typed #PF", err)
		case h.handed == nil:
			t.Fatalf("access faulted (%v) without asking the kernel for the blob", err)
		default:
			if n := m.FreeEPCPages(); n != free {
				t.Fatalf("refused reload moved the free EPC pages from %d to %d", free, n)
			}
			// ELDU refuses the same copy again, with a typed error and
			// without taking an EPC page.
			_, lerr := m.ELDU(h.handed, c.ID)
			var replay *sgx.BlobReplayError
			if lerr == nil {
				t.Fatalf("ELDU accepted a mutated blob %+v", *h.handed)
			}
			if !isa.IsFault(lerr, isa.FaultGP) && !errors.As(lerr, &replay) {
				t.Fatalf("ELDU refused with an untyped error: %v", lerr)
			}
			if n := m.FreeEPCPages(); n != free {
				t.Fatalf("refused ELDU moved the free EPC pages from %d to %d", free, n)
			}
		}
		m.SetHostile(nil)
		if got, err := read(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("honest reload after a refused one: %x, %v; want %x", got, err, want)
		}
	})
}
