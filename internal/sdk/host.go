package sdk

import (
	"fmt"
	"sync"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/sgx"
)

// Host is the untrusted runtime (uRTS) of one application process: it loads
// enclaves through the kernel driver, owns the ocall table, and multiplexes
// ecalls over the machine's cores.
type Host struct {
	K    *kos.Kernel
	Proc *kos.Process

	mu     sync.Mutex
	ocalls map[string]HostFunc

	cores chan *sgx.Core
	// stacks[i] is core i's staging stack. Whoever holds core i from the
	// pool owns it.
	stacks []callStack
}

// NewHost creates a host process on the kernel.
func NewHost(k *kos.Kernel) *Host {
	h := &Host{
		K:      k,
		Proc:   k.NewProcess(),
		ocalls: make(map[string]HostFunc),
		cores:  make(chan *sgx.Core, len(k.Machine().Cores())),
		stacks: make([]callStack, len(k.Machine().Cores())),
	}
	for _, c := range k.Machine().Cores() {
		h.cores <- c
	}
	return h
}

// RegisterOCall installs an untrusted service function.
func (h *Host) RegisterOCall(name string, fn HostFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ocalls[name] = fn
}

func (h *Host) ocall(name string) (HostFunc, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn, ok := h.ocalls[name]
	return fn, ok
}

// acquireCore takes a core from the pool and installs the host's address
// space on it if needed. A scheduling failure returns the core to the pool
// and propagates the error through the calling ecall.
func (h *Host) acquireCore() (*sgx.Core, error) {
	c := <-h.cores
	if c.AddressSpace() != h.Proc.PageTable() {
		// Context switch: new CR3, TLB flush.
		if err := h.K.Schedule(c, h.Proc); err != nil {
			h.cores <- c
			return nil, fmt.Errorf("sdk: schedule: %w", err)
		}
	}
	return c, nil
}

func (h *Host) releaseCore(c *sgx.Core) { h.cores <- c }

// Load builds the enclave from its signed image: ECREATE, EADD/EEXTEND per
// page, EINIT against the certificate. The returned handle is live.
func (h *Host) Load(si *SignedImage) (*Enclave, error) {
	img := si.Image
	s, err := h.K.Driver.CreateEnclave(img.Base, img.Size(), 0)
	if err != nil {
		return nil, fmt.Errorf("sdk: load %s: %w", img.Name, err)
	}
	for _, st := range img.buildSteps() {
		args := sgx.AddPageArgs{
			Vaddr:   st.vaddr,
			Type:    st.typ,
			Perms:   st.perms,
			Content: st.content,
			Entry:   st.entry,
			Measure: st.measure,
		}
		if err := h.K.Driver.AddPage(h.Proc, s, args); err != nil {
			_ = h.K.Driver.DestroyEnclave(h.Proc, s)
			return nil, fmt.Errorf("sdk: load %s: %w", img.Name, err)
		}
	}
	if err := h.K.Driver.InitEnclave(s, si.Cert); err != nil {
		_ = h.K.Driver.DestroyEnclave(h.Proc, s)
		return nil, fmt.Errorf("sdk: load %s: %w", img.Name, err)
	}
	e := &Enclave{
		host:    h,
		img:     img,
		secs:    s,
		tcsFree: make(chan isa.VAddr, img.L.NumTCS),
	}
	for i := 0; i < img.L.NumTCS; i++ {
		e.tcsFree <- img.tcsBase() + isa.VAddr(i)*isa.PageSize
	}
	return e, nil
}

// Associate binds inner to outer with NASSO (kernel privilege) and links the
// SDK handles so n_ecall/n_ocall can route.
func (h *Host) Associate(inner, outer *Enclave) error {
	if err := h.K.Machine().NASSO(inner.secs, outer.secs); err != nil {
		return err
	}
	inner.mu.Lock()
	inner.outers = append(inner.outers, outer)
	inner.mu.Unlock()
	outer.mu.Lock()
	outer.inners = append(outer.inners, inner)
	outer.mu.Unlock()
	return nil
}

// Destroy tears the enclave down and unlinks its SDK association handles in
// both directions, so a partner enclave that later restarts the pair does
// not route n_ecalls through a stale handle. (The machine-level
// associations die with the SECS at EREMOVE; this mirrors that for the SDK
// routing state.)
func (h *Host) Destroy(e *Enclave) error {
	e.mu.Lock()
	outers, inners := e.outers, e.inners
	e.outers, e.inners = nil, nil
	e.mu.Unlock()
	for _, o := range outers {
		o.mu.Lock()
		o.inners = removeHandle(o.inners, e)
		o.mu.Unlock()
	}
	for _, i := range inners {
		i.mu.Lock()
		i.outers = removeHandle(i.outers, e)
		i.mu.Unlock()
	}
	return h.K.Driver.DestroyEnclave(h.Proc, e.secs)
}

func removeHandle(list []*Enclave, e *Enclave) []*Enclave {
	out := list[:0]
	for _, x := range list {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}
