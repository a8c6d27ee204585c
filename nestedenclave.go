// Package nestedenclave is the public API of the nested-enclave simulator:
// a software reproduction of "Nested Enclave: Supporting Fine-grained
// Hierarchical Isolation with SGX" (Park et al., ISCA 2020).
//
// A System bundles the simulated SGX machine (EPC, EPCM, per-core TLBs,
// cache + memory encryption engine, and the nested-enclave instructions
// under the machine config's nesting model), the untrusted kernel, and an
// SDK host process. The typical
// flow mirrors the paper's Figure 4:
//
//	sys := nestedenclave.NewSystem()
//	author := nestedenclave.NewAuthor()
//
//	outerImg := nestedenclave.NewImage("lib", 0x2000_0000, nestedenclave.DefaultLayout())
//	innerImg := nestedenclave.NewImage("app", 0x1000_0000, nestedenclave.DefaultLayout())
//	// ... RegisterECall / RegisterNOCall on the images ...
//
//	outer, _ := sys.Load(outerImg.Sign(author, nil, []nestedenclave.Digest{innerImg.Measure()}))
//	inner, _ := sys.Load(innerImg.Sign(author, []nestedenclave.Digest{outerImg.Measure()}, nil))
//	_ = sys.Associate(inner, outer) // NASSO
//
//	out, _ := outer.ECall("entry", args) // may NECall into inner, etc.
//
// Inside enclave code, the Env provides memory access through the
// hardware-validated path, the trusted heap, ocalls to the host, and the
// paper's n_ecall/n_ocall transitions between outer and inner enclaves.
package nestedenclave

import (
	"nestedenclave/internal/attest"
	"nestedenclave/internal/channel"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// Re-exported building blocks. The aliases keep one import path for users
// while the implementation stays in focused internal packages.
type (
	// Machine is the simulated SGX processor + DRAM.
	Machine = sgx.Machine
	// MachineConfig sizes the machine.
	MachineConfig = sgx.Config
	// Kernel is the simulated (untrusted) operating system.
	Kernel = kos.Kernel
	// NestingConfig selects two-level / multi-level / multi-outer nesting
	// (MachineConfig.Nesting).
	NestingConfig = sgx.NestingConfig
	// Host is an application process's untrusted runtime.
	Host = sdk.Host
	// Image is a declarative enclave image.
	Image = sdk.Image
	// Layout sizes an image.
	Layout = sdk.Layout
	// SignedImage is an author-signed enclave file.
	SignedImage = sdk.SignedImage
	// Enclave is a loaded enclave handle.
	Enclave = sdk.Enclave
	// Env is the in-enclave execution environment, valid only for the call
	// that received it. So is every result of its Read: a call's reads stay
	// on its core's stack until it returns, so keep bytes past the call with
	// bytes.Clone or ReadInto, and have a loop that reads more than it keeps
	// reuse one buffer with ReadInto.
	Env = sdk.Env
	// TrustedFunc is an enclave entry point, installed with RegisterECall or
	// RegisterNOCall. Its args, like an SGX [in] buffer, its Env and its
	// Env.Read results are valid only for the call: the runtime clears and
	// reuses them afterwards. A result may alias args or a Read result (the
	// runtime copies it out); any other result passes to the caller.
	TrustedFunc = sdk.TrustedFunc
	// HostFunc is an untrusted ocall handler; it keeps its own copy of args.
	HostFunc = sdk.HostFunc
	// Author signs enclave images.
	Author = measure.Author
	// Digest is a 256-bit measurement (MRENCLAVE/MRSIGNER).
	Digest = measure.Digest
	// NestedReport is NEREPORT's output.
	NestedReport = sgx.NestedReport
	// Quote is a remotely-verifiable attestation statement.
	Quote = attest.Quote
	// QuotingService converts nested reports into quotes.
	QuotingService = attest.QuotingService
	// Expectation is a challenger's quote policy.
	Expectation = attest.Expectation
	// OuterChannel is the fast inter-enclave channel through outer memory.
	OuterChannel = channel.OuterChannel
	// GCMChannel is the encrypted channel over untrusted IPC.
	GCMChannel = channel.GCMChannel
	// Recorder exposes the machine's event counters and cycle clock.
	Recorder = trace.Recorder
)

// DefaultLayout returns a small enclave layout.
func DefaultLayout() Layout { return sdk.DefaultLayout() }

// NewImage declares an enclave image whose ELRANGE starts at base.
func NewImage(name string, base uint64, l Layout) *Image {
	return sdk.NewImage(name, isa.VAddr(base), l)
}

// NewAuthor generates a signing identity (panics only on entropy failure).
func NewAuthor() *Author { return measure.MustNewAuthor() }

// TwoLevel is the paper's base nesting configuration.
func TwoLevel() NestingConfig { return sgx.TwoLevel() }

// Options configure NewSystem.
type Options struct {
	// Machine sizes the simulated machine and selects its nesting model;
	// the zero value means the default 4-core, 128 MiB-PRM, 8 MiB-LLC
	// configuration under the paper's two-level single-outer model, and any
	// other value is used as given. A Nesting of {MaxDepth: 1} builds a
	// baseline-SGX system — the paper's monolithic comparison — where NASSO
	// refuses every association.
	Machine MachineConfig
}

// System is a booted simulator: machine + kernel + one host process.
type System struct {
	Machine *Machine
	Kernel  *Kernel
	Host    *Host
}

// NewSystem boots a simulator with the given options (pass none for the
// defaults). It panics if the machine configuration is invalid; use
// NewSystemErr to handle that as an error.
func NewSystem(opts ...Options) *System {
	s, err := NewSystemErr(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemErr is NewSystem returning configuration errors instead of
// panicking.
func NewSystemErr(opts ...Options) (*System, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	mc := o.Machine
	if mc == (MachineConfig{}) {
		mc = sgx.DefaultConfig()
	}
	m, err := sgx.New(mc)
	if err != nil {
		return nil, err
	}
	k := kos.New(m)
	return &System{Machine: m, Kernel: k, Host: sdk.NewHost(k)}, nil
}

// Load builds and initializes an enclave in the system's host process.
func (s *System) Load(img *SignedImage) (*Enclave, error) { return s.Host.Load(img) }

// Associate binds an inner enclave to an outer enclave (NASSO).
func (s *System) Associate(inner, outer *Enclave) error { return s.Host.Associate(inner, outer) }

// RegisterOCall installs an untrusted host service function.
func (s *System) RegisterOCall(name string, fn HostFunc) { s.Host.RegisterOCall(name, fn) }

// Recorder returns the machine's counters and simulated-cycle clock.
func (s *System) Recorder() *Recorder { return s.Machine.Rec }

// NewQuotingService provisions remote attestation on the system.
func (s *System) NewQuotingService() (*QuotingService, error) {
	return attest.NewQuotingService(s.Machine)
}

// VerifyQuote is the remote challenger's check.
func VerifyQuote(platformKey []byte, q *Quote, want Expectation) error {
	return attest.Verify(platformKey, q, want)
}
