// Package isa defines the architectural constants shared by the simulated
// SGX machine: page and cacheline geometry, access kinds, page permissions,
// enclave page types, and the fault model raised by the access-validation
// hardware.
//
// The package is dependency-free; every other machine package builds on it.
package isa

import "fmt"

// Architectural geometry. The values follow x86/SGX: 4 KiB pages and 64-byte
// cachelines (the MEE encryption granule).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1

	LineShift = 6
	LineSize  = 1 << LineShift
	LineMask  = LineSize - 1

	// EEXTEND measures enclave content in 256-byte chunks.
	ExtendChunk = 256
)

// VAddr is a virtual address in a process address space.
type VAddr uint64

// PAddr is a physical address in the simulated DRAM.
type PAddr uint64

// PageBase returns the address rounded down to its page base.
func (v VAddr) PageBase() VAddr { return v &^ VAddr(PageMask) }

// Offset returns the in-page offset of the address.
func (v VAddr) Offset() uint64 { return uint64(v) & PageMask }

// VPN returns the virtual page number.
func (v VAddr) VPN() uint64 { return uint64(v) >> PageShift }

// PageBase returns the address rounded down to its page base.
func (p PAddr) PageBase() PAddr { return p &^ PAddr(PageMask) }

// Offset returns the in-page offset of the address.
func (p PAddr) Offset() uint64 { return uint64(p) & PageMask }

// PPN returns the physical page number.
func (p PAddr) PPN() uint64 { return uint64(p) >> PageShift }

// LineBase returns the address rounded down to its cacheline base.
func (p PAddr) LineBase() PAddr { return p &^ PAddr(LineMask) }

// Access describes the kind of a memory access, used both by the page
// permission check and by the enclave access validator.
type Access uint8

const (
	Read Access = iota
	Write
	Execute
)

func (a Access) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	}
	return fmt.Sprintf("access(%d)", uint8(a))
}

// Perm is a page permission bitmask.
type Perm uint8

const (
	PermR Perm = 1 << iota
	PermW
	PermX

	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// Allows reports whether the permission mask admits the access kind.
func (p Perm) Allows(a Access) bool {
	switch a {
	case Read:
		return p&PermR != 0
	case Write:
		return p&PermW != 0
	case Execute:
		return p&PermX != 0
	}
	return false
}

func (p Perm) String() string {
	b := [3]byte{'-', '-', '-'}
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b[:])
}

// PageType classifies an EPC page in the EPCM, mirroring SGX's PT_* types.
type PageType uint8

const (
	// PTReg is a regular enclave data/code page.
	PTReg PageType = iota
	// PTSECS holds an enclave's SGX Enclave Control Structure.
	PTSECS
	// PTTCS holds a Thread Control Structure.
	PTTCS
	// PTVA holds version-array slots used by the EPC eviction mechanism.
	PTVA
)

func (t PageType) String() string {
	switch t {
	case PTReg:
		return "PT_REG"
	case PTSECS:
		return "PT_SECS"
	case PTTCS:
		return "PT_TCS"
	case PTVA:
		return "PT_VA"
	}
	return fmt.Sprintf("PT(%d)", uint8(t))
}

// FaultClass distinguishes the hardware exceptions the simulator raises.
type FaultClass uint8

const (
	// FaultGP is a general-protection fault (#GP): illegal instruction use,
	// invalid enclave transitions, EPCM attribute violations.
	FaultGP FaultClass = iota
	// FaultPF is a page fault (#PF): non-present translations, permission
	// violations, and aborted EPC translations.
	FaultPF
	// FaultMC models the machine-check abort raised when the MEE integrity
	// tree detects tampering of protected memory.
	FaultMC
)

func (c FaultClass) String() string {
	switch c {
	case FaultGP:
		return "#GP"
	case FaultPF:
		return "#PF"
	case FaultMC:
		return "#MC"
	}
	return fmt.Sprintf("#FAULT(%d)", uint8(c))
}

// Fault is the error type produced by the simulated hardware when an access
// or instruction is rejected. It implements error so machine operations can
// surface faults through ordinary Go error returns; the SDK layer converts
// them into asynchronous enclave exits where the architecture demands it.
type Fault struct {
	Class FaultClass
	// Addr is the faulting virtual address, when meaningful.
	Addr VAddr
	// Op is the access kind for memory faults.
	Op Access
	// Reason is a human-readable explanation used in logs and tests.
	Reason string
}

func (f *Fault) Error() string {
	if f.Reason == "" {
		return fmt.Sprintf("%v at %#x (%v)", f.Class, uint64(f.Addr), f.Op)
	}
	return fmt.Sprintf("%v at %#x (%v): %s", f.Class, uint64(f.Addr), f.Op, f.Reason)
}

// GP constructs a general-protection fault.
func GP(reason string, args ...any) *Fault {
	return &Fault{Class: FaultGP, Reason: reasonf(reason, args)}
}

// PF constructs a page fault at the given address.
func PF(addr VAddr, op Access, reason string, args ...any) *Fault {
	return &Fault{Class: FaultPF, Addr: addr, Op: op, Reason: reasonf(reason, args)}
}

// MC constructs a machine-check fault (integrity failure).
func MC(reason string, args ...any) *Fault {
	return &Fault{Class: FaultMC, Reason: reasonf(reason, args)}
}

// reasonf formats a fault's reason. A reason given no arguments is used as
// it is, so a fault on the demand-paging path ("not present") allocates only
// itself.
func reasonf(reason string, args []any) string {
	if len(args) == 0 {
		return reason
	}
	return fmt.Sprintf(reason, args...)
}

// IsFault reports whether err is a simulated hardware fault of class c.
func IsFault(err error, c FaultClass) bool {
	f, ok := err.(*Fault)
	return ok && f.Class == c
}

// EID is an enclave identity. Architecturally SGX identifies an enclave by
// the physical address of its SECS page; the simulator uses a monotonically
// assigned 64-bit id with the same uniqueness property. EID 0 is reserved
// and never names an enclave ("no enclave" / OuterEID absent).
type EID uint64

// NoEnclave is the reserved null enclave identity.
const NoEnclave EID = 0
