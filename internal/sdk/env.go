package sdk

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// Env is the trusted runtime (tRTS) execution environment handed to enclave
// code: memory access through the hardware-validated path, the trusted heap,
// and the four transition interfaces (ocall, and for nested enclaves
// n_ecall/n_ocall; the initial ecall created this Env).
//
// An Env is a frame of the call that received it, valid only until that
// call returns: the runtime reuses it for later calls on the same core. So
// is every result of its Read, which lives on the call's stack frame (see
// Read); ReadInto fills a buffer the caller owns.
type Env struct {
	// E is the enclave this code runs in.
	E *Enclave
	// C is the executing core.
	C *sgx.Core

	tcsV isa.VAddr

	// stack is the staging stack of the chain's core, which holds this
	// frame and the arguments and Read results of every call of the chain.
	stack *callStack
}

// nested pushes the environment of enclave e entered through TCS tcsV on
// this call chain's core. It shares the chain's staging stack; the caller
// pops it with env.stack.popEnv.
func (env *Env) nested(e *Enclave, tcsV isa.VAddr) *Env {
	return env.stack.pushEnv(Env{E: e, C: env.C, tcsV: tcsV, stack: env.stack})
}

// --- Memory ---

// ErrContextLost is the sentinel matched (errors.Is) by *ContextLost.
var ErrContextLost = fmt.Errorf("sdk: enclave execution context lost")

// ContextLost reports that the core left this enclave's execution context
// mid-operation and was not resumed into it — the signature of a malicious
// scheduler parking the thread or ERESUMEing it elsewhere. Without this
// check the abort-page semantics would let trusted code keep computing on
// 0xFF filler; with it, the operation surfaces a typed detection error
// before any such value is returned. Non-transient: retrying on the same
// poisoned context cannot succeed.
type ContextLost struct {
	Enclave string
	Core    int
}

func (e *ContextLost) Error() string {
	return fmt.Sprintf("sdk: core %d no longer executes enclave %s (malicious scheduling detected)", e.Core, e.Enclave)
}

func (e *ContextLost) Is(target error) bool { return target == ErrContextLost }

// guardContext verifies, after a memory operation, that the core still
// executes this environment's enclave. One pointer compare — nil-cost for
// honest schedulers.
func (env *Env) guardContext() error {
	if env.C.Current() != env.E.secs {
		return &ContextLost{Enclave: env.E.img.Name, Core: env.C.ID}
	}
	return nil
}

// Read reads n bytes of (virtual) memory through the access-validated path
// into a buffer reserved on the executing core's call stack; see ReadInto.
//
// Like the call's args, the result is valid only until the trusted call
// that made it returns: the call's reads stay on its core's stack until
// then, and the stack clears and reuses their bytes afterwards. A handler
// may return a Read result (the runtime copies it out); to keep bytes past
// the call, use bytes.Clone or ReadInto. A loop that reads more than it
// keeps should reuse one buffer with ReadInto. The result's capacity ends
// at its length, so an append reallocates. A failed Read releases its
// reservation.
func (env *Env) Read(v isa.VAddr, n int) ([]byte, error) {
	top := env.stack.top
	b := env.stack.push(n)
	if err := env.ReadInto(v, b); err != nil {
		env.stack.popTo(top)
		return nil, err
	}
	return b, nil
}

// ReadInto reads len(dst) bytes of (virtual) memory at v into dst through
// the access-validated path, allocating nothing. Reads of memory this
// enclave may not see return 0xFF bytes (abort-page semantics), exactly like
// the hardware — but if the execution context itself was torn down
// mid-read (wrong-core ERESUME), dst is cleared and a typed *ContextLost
// detection error returned instead.
func (env *Env) ReadInto(v isa.VAddr, dst []byte) error {
	if err := env.C.ReadInto(v, dst); err != nil {
		return err
	}
	if err := env.guardContext(); err != nil {
		clear(dst)
		return err
	}
	return nil
}

// Write stores b at v through the access-validated path. Writes to memory
// this enclave may not touch are silently dropped; a write whose execution
// context was torn down mid-operation reports *ContextLost.
func (env *Env) Write(v isa.VAddr, b []byte) error {
	err := env.C.Write(v, b)
	if err == nil {
		if cerr := env.guardContext(); cerr != nil {
			return cerr
		}
	}
	return err
}

// Malloc allocates n bytes on the enclave's trusted heap.
func (env *Env) Malloc(n int) (isa.VAddr, error) {
	h := env.E.Heap()
	env.E.mu.Lock()
	defer env.E.mu.Unlock()
	return h.Alloc(n)
}

// Free releases a heap allocation (contents are not cleared).
func (env *Env) Free(v isa.VAddr) error {
	h := env.E.Heap()
	env.E.mu.Lock()
	defer env.E.mu.Unlock()
	return h.Free(v)
}

// --- Transitions ---

// OCall leaves the enclave to run a registered untrusted host function, then
// re-enters. The EDL must whitelist the function.
func (env *Env) OCall(name string, args []byte) ([]byte, error) {
	if !env.E.img.AllowedOCalls[name] {
		return nil, fmt.Errorf("sdk: ocall %q not in enclave %s's EDL", name, env.E.img.Name)
	}
	fn, ok := env.E.host.ocall(name)
	if !ok {
		return nil, fmt.Errorf("sdk: host has no ocall handler %q", name)
	}
	m := env.E.host.K.Machine()
	op := m.Rec.BeginOp(trace.OpOCall, env.C.ID, uint64(env.E.secs.EID), name)
	defer op.End()
	m.Rec.ChargeTo(uint64(env.E.secs.EID), env.C.ID, trace.EvOCall, 0)
	// The tRTS scrubs registers and marshals arguments out before EEXIT.
	marshalled := append([]byte(nil), args...)
	env.C.Regs.Scrub()
	if err := m.EExit(env.C, false); err != nil {
		return nil, err
	}
	out, ferr := fn(marshalled)
	if err := m.EEnter(env.C, env.E.secs, env.tcsV, true); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	// Ownership of the handler's return buffer transfers to the enclave; the
	// marshalling-in copy above is the only defensive copy on this path.
	return out, nil
}

// OCallAsync performs a switchless ocall, as Occlum's switchless calls do,
// when the EDL marks the function switchless (AllowSwitchless): the thread
// stays in the enclave, so the EEXIT/EENTER pair is elided, and the enclave
// pays the ring protocol instead, CostRingSubmit on the calling core to post
// the request and CostRingService, on no core, for the host worker that
// serves it. Those two charges are the ring's whole cost, whatever the
// host's scheduling, so the handler simply runs inline. An unmarked function
// takes the synchronous OCall path, so callers may use OCallAsync
// unconditionally.
func (env *Env) OCallAsync(name string, args []byte) ([]byte, error) {
	if !env.E.img.SwitchlessOCalls[name] {
		return env.OCall(name, args)
	}
	if !env.E.img.AllowedOCalls[name] {
		return nil, fmt.Errorf("sdk: ocall %q not in enclave %s's EDL", name, env.E.img.Name)
	}
	fn, ok := env.E.host.ocall(name)
	if !ok {
		return nil, fmt.Errorf("sdk: host has no ocall handler %q", name)
	}
	m := env.E.host.K.Machine()
	eid := uint64(env.E.secs.EID)
	op := m.Rec.BeginOp(trace.OpSwitchlessOCall, env.C.ID, eid, name)
	defer op.End()
	m.Rec.ChargeTo(eid, env.C.ID, trace.EvSwitchless, trace.CostRingSubmit)
	// One marshalling copy into the host-shared request; the response
	// buffer is produced by the host and ownership transfers here.
	out, ferr := fn(append([]byte(nil), args...))
	m.Rec.ChargeTo(eid, trace.NoCore, trace.EvSwitchless, trace.CostRingService)
	return out, ferr
}

// NECall invokes an entry point of an associated inner enclave via NEENTER —
// the outer→inner transition that never leaves protected mode. The target
// function runs with the inner enclave's environment; on return NEEXIT
// restores this enclave's context.
func (env *Env) NECall(inner *Enclave, name string, args []byte) ([]byte, error) {
	fn, ok := inner.img.ECalls[name]
	if !ok {
		return nil, fmt.Errorf("sdk: inner enclave %s has no entry %q", inner.img.Name, name)
	}
	m := env.E.host.K.Machine()
	op := m.Rec.BeginOp(trace.OpNECall, env.C.ID, uint64(inner.secs.EID), name)
	defer op.End()
	m.Rec.ChargeTo(uint64(inner.secs.EID), env.C.ID, trace.EvNECall, 0)
	tcsV := inner.claimTCS()
	defer inner.releaseTCS(tcsV)
	if err := m.NEENTER(env.C, inner.secs, tcsV); err != nil {
		return nil, err
	}
	out, ferr := runNested(env.nested(inner, tcsV), name, fn, args)
	env.stack.popEnv()
	if _, crashed := IsCrash(ferr); crashed {
		// The inner crashed; runNested already popped back to this frame
		// (or evacuated the core). Surface the typed error to the caller.
		return nil, ferr
	}
	if err := env.neexit(); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// neexit returns from the nested entry the core is in. When NEEXIT refuses
// with its frame still in place, because the enclave it would return into
// was removed meanwhile, the core is evacuated as after a crash, so it goes
// back to the pool usable and every caller up the chain fails.
func (env *Env) neexit() error {
	m := env.E.host.K.Machine()
	err := m.NEEXIT(env.C)
	if t := env.C.CurrentTCS(); err != nil && t != nil && t.Ret() {
		m.EmergencyExit(env.C)
	}
	return err
}

// runNested runs a trusted function with env on a copy of args staged on
// the chain's core stack, and pops the copy and fn's Read results when fn
// returns or crashes, copying out a result that shares them. It contains a
// crash: a panic poisons the executing enclave and converts the crash into
// a typed *EnclaveCrashed. When a suspended caller frame exists (an n_ecall
// or n_ocall), it NEEXITs back to it, which scrubs the register file so no
// crashed-enclave state leaks into the caller. Without a frame to return to
// — always so under an ecall, because EENTER refuses a TCS that holds one —
// the core is force-evacuated, scrubbing registers and every suspended frame
// of the nested chain.
func runNested(env *Env, call string, fn TrustedFunc, args []byte) (out []byte, err error) {
	st := env.stack
	top := st.top
	staged := st.pushArgs(args)
	defer func() {
		out = st.popArgs(top, out)
		if r := recover(); r != nil {
			m := env.E.host.K.Machine()
			eid := env.E.secs.EID
			m.PoisonEnclave(eid, fmt.Sprintf("trusted code panic in %s: %v", call, r))
			if t := env.C.CurrentTCS(); t != nil && t.Ret() {
				if nerr := m.NEEXIT(env.C); nerr != nil {
					m.EmergencyExit(env.C)
				}
			} else {
				m.EmergencyExit(env.C)
			}
			out, err = nil, &EnclaveCrashed{Enclave: env.E.img.Name, Call: call, EID: eid, Panic: r}
		}
	}()
	return fn(env, staged)
}

// NOCall invokes a function the outer enclave exposes to its inners via
// NEEXIT/NEENTER — the inner→outer call path with ordinary procedure-call
// syntax ("an application in an inner enclave can call library functions
// isolated in the outer enclave").
func (env *Env) NOCall(name string, args []byte) ([]byte, error) {
	// Resolve the function across the associated outer enclaves (one, in
	// the base model), under the enclave's lock instead of on a copy of its
	// outer list.
	var outer *Enclave
	var fn TrustedFunc
	env.E.mu.Lock()
	nouters := len(env.E.outers)
	for _, o := range env.E.outers {
		if f, ok := o.img.NOCalls[name]; ok {
			outer, fn = o, f
			break
		}
	}
	env.E.mu.Unlock()
	if nouters == 0 {
		return nil, fmt.Errorf("sdk: enclave %s has no outer enclave", env.E.img.Name)
	}
	if outer == nil {
		return nil, fmt.Errorf("sdk: no outer enclave of %s exposes %q", env.E.img.Name, name)
	}
	m := env.E.host.K.Machine()
	op := m.Rec.BeginOp(trace.OpNOCall, env.C.ID, uint64(outer.secs.EID), name)
	defer op.End()
	m.Rec.ChargeTo(uint64(outer.secs.EID), env.C.ID, trace.EvNOCall, 0)

	// Fast path: this inner was NEENTERed from the outer enclave, so NEEXIT
	// restores the suspended outer context directly (scrubbing registers
	// and flushing the TLB)...
	if t := env.C.CurrentTCS(); t != nil && t.Ret() {
		if err := env.neexit(); err != nil {
			return nil, err
		}
		out, ferr := runNested(env.nested(outer, env.C.CurrentTCS().Vaddr), name, fn, args)
		env.stack.popEnv()
		if _, crashed := IsCrash(ferr); crashed {
			// The outer crashed while serving this call; there is no frame
			// to NEENTER back through (runNested evacuated the core).
			return nil, ferr
		}
		// ...then NEENTER back into this inner enclave on the same TCS.
		if err := m.NEENTER(env.C, env.E.secs, env.tcsV); err != nil {
			return nil, err
		}
		if ferr != nil {
			return nil, ferr
		}
		return out, nil
	}

	// Upward path: the inner was entered directly from untrusted code (the
	// per-user service deployments), so the call transfers into the outer
	// enclave with an upward NEENTER and returns with NEEXIT — still never
	// leaving protected mode.
	outerTCSV := outer.claimTCS()
	defer outer.releaseTCS(outerTCSV)
	if err := m.NEENTER(env.C, outer.secs, outerTCSV); err != nil {
		return nil, err
	}
	out, ferr := runNested(env.nested(outer, outerTCSV), name, fn, args)
	env.stack.popEnv()
	if _, crashed := IsCrash(ferr); crashed {
		// The outer crashed; runNested already NEEXITed back to this inner.
		return nil, ferr
	}
	if err := env.neexit(); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// --- Attestation ---

// Report produces an EREPORT targeted at the enclave measuring target.
func (env *Env) Report(target measure.Digest, data [64]byte) (*sgx.Report, error) {
	return env.E.host.K.Machine().EReport(env.C, target, data)
}

// VerifyReport checks a report addressed to this enclave.
func (env *Env) VerifyReport(r *sgx.Report) error {
	return env.E.host.K.Machine().VerifyReport(env.C, r)
}

// VerifyNestedReport checks a nested report (NEREPORT) addressed to this
// enclave.
func (env *Env) VerifyNestedReport(r *sgx.NestedReport) error {
	return env.E.host.K.Machine().VerifyNestedReport(env.C, r)
}

// GetKey derives a sealing/report key for this enclave.
func (env *Env) GetKey(name measure.KeyName, policy sgx.SealPolicy, extra []byte) ([16]byte, error) {
	return env.E.host.K.Machine().EGetKey(env.C, name, policy, extra)
}

// Seal encrypts data under a key only this enclave (SealToEnclave) or any
// enclave from the same author (SealToSigner) can re-derive, producing a
// blob safe to hand to the untrusted world for persistence.
func (env *Env) Seal(policy sgx.SealPolicy, plaintext []byte) ([]byte, error) {
	aead, err := env.sealAEAD(policy)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return aead.Seal(nonce, nonce, plaintext, nil), nil
}

// Unseal reverses Seal. It fails for blobs sealed by any other identity —
// the property that makes sealed storage safe in kernel hands.
func (env *Env) Unseal(policy sgx.SealPolicy, blob []byte) ([]byte, error) {
	aead, err := env.sealAEAD(policy)
	if err != nil {
		return nil, err
	}
	if len(blob) < aead.NonceSize() {
		return nil, fmt.Errorf("sdk: sealed blob too short")
	}
	pt, err := aead.Open(nil, blob[:aead.NonceSize()], blob[aead.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("sdk: unseal failed (wrong enclave identity or tampered blob): %w", err)
	}
	return pt, nil
}

func (env *Env) sealAEAD(policy sgx.SealPolicy) (cipher.AEAD, error) {
	key, err := env.GetKey(measure.KeySeal, policy, nil)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// GrowHeap populates reserved ELRANGE pages (SGX2 EAUG) from inside the
// enclave: the request leaves via an implicit ocall to the runtime, which
// asks the kernel to augment the pages.
func (env *Env) GrowHeap(n int) error { return env.E.GrowHeap(n) }
