// Package sdk is the enclave software development kit of the simulator: the
// equivalent of Intel's SDK that the paper extended. It provides
//
//   - enclave images: a declarative layout (code/data/heap/TCS pages) plus a
//     trusted function table, with deterministic content so measurements are
//     reproducible, and author signing (the "signed enclave file");
//   - the untrusted runtime (uRTS): loading images through the kernel
//     driver, dispatching ecalls, serving ocalls;
//   - the trusted runtime (tRTS): the in-enclave execution environment (Env)
//     through which enclave code accesses its memory, its heap, and the
//     transition interfaces — ecall/ocall from the original SGX, and the
//     paper's n_ecall/n_ocall between outer and inner enclaves.
package sdk

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
)

// TrustedFunc is an enclave entry point: code that runs inside the enclave,
// reached by an ecall, an n_ecall or an n_ocall.
//
// Like an SGX [in] buffer, args is the handler's private copy, valid only
// for the call: the runtime stages it on the core's call stack and clears
// and reuses the bytes once the call returns, so a handler may change args
// but must not keep it, env, or a result of env.Read past its return. The
// call's Read results share that lifetime and stack (bytes.Clone or
// env.ReadInto keeps bytes longer). A result may alias args or a Read
// result; the runtime then copies it out. Ownership of any other result
// passes to the caller, so a handler must not keep that either.
type TrustedFunc func(env *Env, args []byte) ([]byte, error)

// HostFunc is an untrusted ocall handler. Its args are its own copy, which
// it may keep.
type HostFunc func(args []byte) ([]byte, error)

// Layout sizes an enclave image. One page is 4 KiB.
type Layout struct {
	CodePages int // measured, RX
	DataPages int // measured, RW (initialized data)
	HeapPages int // unmeasured, RW, zero-initialized
	NumTCS    int
	// ReservedHeapPages reserves ELRANGE space (no EPC pages at load time)
	// that GrowHeap can populate after initialization with SGX2-style EAUG.
	// ELRANGE is immutable, so growth capacity must be declared up front.
	ReservedHeapPages int
}

// DefaultLayout is a small enclave: 16 KiB code, 16 KiB data, 64 KiB heap.
func DefaultLayout() Layout {
	return Layout{CodePages: 4, DataPages: 4, HeapPages: 16, NumTCS: 2}
}

// Image is an unsigned enclave image: the layout, deterministic page
// contents, and the interface tables (the EDL).
type Image struct {
	Name string
	Base isa.VAddr
	L    Layout

	// ECalls are entry points callable from the untrusted host (and, for
	// inner enclaves, the targets of n_ecalls from the outer enclave).
	ECalls map[string]TrustedFunc
	// NOCalls are functions this enclave exposes to its *inner* enclaves
	// via n_ocall (the "library functions isolated in the outer enclave").
	NOCalls map[string]TrustedFunc
	// AllowedOCalls restricts which host functions this enclave's code may
	// invoke; empty means none (the EDL's untrusted interface).
	AllowedOCalls map[string]bool
	// SwitchlessOCalls marks allowed ocalls the enclave may make switchless
	// (Env.OCallAsync), paying the ring protocol instead of the EEXIT/EENTER
	// transition — the EDL's `transition_using_threads` annotation. Always
	// a subset of AllowedOCalls.
	SwitchlessOCalls map[string]bool
}

// NewImage creates an image with the given ELRANGE base and layout.
func NewImage(name string, base isa.VAddr, l Layout) *Image {
	if l.NumTCS <= 0 {
		l.NumTCS = 1
	}
	return &Image{
		Name:             name,
		Base:             base,
		L:                l,
		ECalls:           make(map[string]TrustedFunc),
		NOCalls:          make(map[string]TrustedFunc),
		AllowedOCalls:    make(map[string]bool),
		SwitchlessOCalls: make(map[string]bool),
	}
}

// RegisterECall adds an entry point. fn's args and env are valid only for
// the call (see TrustedFunc).
func (img *Image) RegisterECall(name string, fn TrustedFunc) *Image {
	img.ECalls[name] = fn
	return img
}

// RegisterNOCall exposes a function to inner enclaves.
func (img *Image) RegisterNOCall(name string, fn TrustedFunc) *Image {
	img.NOCalls[name] = fn
	return img
}

// AllowOCall whitelists a host function in the EDL.
func (img *Image) AllowOCall(names ...string) *Image {
	for _, n := range names {
		img.AllowedOCalls[n] = true
	}
	return img
}

// AllowSwitchless whitelists host functions in the EDL and additionally
// marks them switchless-capable: Env.OCallAsync serves them without an
// enclave transition. The marking is part of the EDL and therefore folded
// into the measurement.
func (img *Image) AllowSwitchless(names ...string) *Image {
	for _, n := range names {
		img.AllowedOCalls[n] = true
		img.SwitchlessOCalls[n] = true
	}
	return img
}

// Page-region accessors. The layout is consecutive from Base:
// [code][data][heap][tcs].
func (img *Image) codeBase() isa.VAddr { return img.Base }
func (img *Image) dataBase() isa.VAddr {
	return img.Base + isa.VAddr(img.L.CodePages)*isa.PageSize
}

// HeapBase returns the first heap address.
func (img *Image) HeapBase() isa.VAddr {
	return img.dataBase() + isa.VAddr(img.L.DataPages)*isa.PageSize
}

// HeapSize returns the heap length in bytes.
func (img *Image) HeapSize() uint64 { return uint64(img.L.HeapPages) * isa.PageSize }

func (img *Image) tcsBase() isa.VAddr {
	return img.HeapBase() + isa.VAddr(img.HeapSize())
}

// ReservedBase returns the first address of the reserved (growable) region.
func (img *Image) ReservedBase() isa.VAddr {
	return img.tcsBase() + isa.VAddr(img.L.NumTCS)*isa.PageSize
}

// TotalPages returns the number of pages populated at load time.
func (img *Image) TotalPages() int {
	return img.L.CodePages + img.L.DataPages + img.L.HeapPages + img.L.NumTCS
}

// Size returns the ELRANGE size in bytes (populated + reserved).
func (img *Image) Size() uint64 {
	return uint64(img.TotalPages()+img.L.ReservedHeapPages) * isa.PageSize
}

// interfaceDigest folds the entry table into the synthetic page content so
// an image with different code (a different function table) measures
// differently — the property attestation depends on.
func (img *Image) interfaceDigest() [32]byte {
	names := make([]string, 0, len(img.ECalls)+len(img.NOCalls)+len(img.SwitchlessOCalls))
	for n := range img.ECalls {
		names = append(names, "e:"+n)
	}
	for n := range img.NOCalls {
		names = append(names, "no:"+n)
	}
	// Switchless markings change the trusted/untrusted interface contract,
	// so they are measured; images that use none keep their measurement.
	for n := range img.SwitchlessOCalls {
		names = append(names, "sw:"+n)
	}
	sort.Strings(names)
	h := sha256.New()
	h.Write([]byte(img.Name))
	for _, n := range names {
		h.Write([]byte{0})
		h.Write([]byte(n))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// PageContent deterministically generates the initial content of measured
// page i (counting code pages then data pages) — the stand-in for the
// compiled binary's bytes.
func (img *Image) PageContent(i int) []byte {
	seed := img.interfaceDigest()
	out := make([]byte, isa.PageSize)
	var ctr [40]byte
	copy(ctr[:32], seed[:])
	for off := 0; off < isa.PageSize; off += 32 {
		binary.LittleEndian.PutUint64(ctr[32:], uint64(i)<<32|uint64(off))
		s := sha256.Sum256(ctr[:])
		copy(out[off:], s[:])
	}
	return out
}

// buildSteps yields the (type, vaddr, perms, content, measured, entry) page
// sequence shared by Measure and the loader, in deterministic order.
type pageStep struct {
	vaddr   isa.VAddr
	typ     isa.PageType
	perms   isa.Perm
	content []byte
	measure bool
	entry   int
}

func (img *Image) buildSteps() []pageStep {
	var steps []pageStep
	for i := 0; i < img.L.CodePages; i++ {
		steps = append(steps, pageStep{
			vaddr: img.codeBase() + isa.VAddr(i)*isa.PageSize, typ: isa.PTReg,
			perms: isa.PermRX, content: img.PageContent(i), measure: true,
		})
	}
	for i := 0; i < img.L.DataPages; i++ {
		steps = append(steps, pageStep{
			vaddr: img.dataBase() + isa.VAddr(i)*isa.PageSize, typ: isa.PTReg,
			perms: isa.PermRW, content: img.PageContent(img.L.CodePages + i), measure: true,
		})
	}
	for i := 0; i < img.L.HeapPages; i++ {
		steps = append(steps, pageStep{
			vaddr: img.HeapBase() + isa.VAddr(i)*isa.PageSize, typ: isa.PTReg,
			perms: isa.PermRW, measure: false,
		})
	}
	for i := 0; i < img.L.NumTCS; i++ {
		steps = append(steps, pageStep{
			vaddr: img.tcsBase() + isa.VAddr(i)*isa.PageSize, typ: isa.PTTCS,
			entry: i, measure: false,
		})
	}
	return steps
}

// Measure computes the image's expected MRENCLAVE by replaying the build
// sequence through the measurement rules — what the enclave author does
// offline to produce the signed file.
func (img *Image) Measure() measure.Digest {
	b := measure.NewBuilder()
	b.ECreate(img.Size(), 0)
	for _, st := range img.buildSteps() {
		var perms isa.Perm
		if st.typ == isa.PTReg {
			perms = st.perms
		}
		b.EAdd(uint64(st.vaddr-img.Base), st.typ, perms)
		if st.measure {
			content := st.content
			if content == nil {
				content = make([]byte, isa.PageSize)
			}
			for ch := 0; ch < isa.PageSize; ch += isa.ExtendChunk {
				b.EExtend(uint64(st.vaddr-img.Base)+uint64(ch), content[ch:ch+isa.ExtendChunk])
			}
		}
	}
	return b.Finalize()
}

// SignedImage is the signed enclave file: image plus SIGSTRUCT.
type SignedImage struct {
	Image *Image
	Cert  *measure.SigStruct
}

// Sign produces the signed enclave file. expectedOuters/expectedInners are
// the measurements of enclaves this one may associate with (the nested
// extension to the signed file format, paper §IV-C).
func (img *Image) Sign(author *measure.Author, expectedOuters, expectedInners []measure.Digest) *SignedImage {
	return &SignedImage{
		Image: img,
		Cert:  author.Sign(img.Measure(), expectedOuters, expectedInners),
	}
}

func (img *Image) String() string {
	return fmt.Sprintf("image(%s base=%#x pages=%d tcs=%d)", img.Name, uint64(img.Base), img.TotalPages(), img.L.NumTCS)
}
