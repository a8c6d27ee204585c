package sdk

import (
	"bytes"
	"unsafe"
)

// callStack is one core's LIFO staging area for trusted calls: the
// simulator's counterpart of the enclave stack onto which an SGX edger8r
// bridge copies [in] arguments that live only for the call. Every ecall,
// n_ecall and n_ocall copies its arguments onto the stack of the core it
// runs on and takes its Env frame from it, and pops both when the call
// returns, fails or crashes. A call chain never leaves the core
// acquireCore gave it, and a core serves one chain at a time, so the stack
// needs no lock. Once it has grown to a chain's deepest nesting and largest
// arguments, a call allocates nothing.
type callStack struct {
	buf   []byte // staged argument bytes; live frames own buf[:top]
	top   int
	envs  []*Env // Env frames; live frames own envs[:depth]
	depth int
}

// pushEnv takes the next Env frame and sets it to env.
func (s *callStack) pushEnv(env Env) *Env {
	if s.depth == len(s.envs) {
		s.envs = append(s.envs, new(Env))
	}
	f := s.envs[s.depth]
	*f = env
	s.depth++
	return f
}

// popEnv releases the top Env frame. It is cleared, so a handler that kept
// its env past the call cannot act as the enclave through it.
func (s *callStack) popEnv() {
	s.depth--
	*s.envs[s.depth] = Env{}
}

// pushArgs copies args onto the stack and returns the copy: the private
// buffer the handler runs on, which the caller can no longer change. Its
// capacity ends at its length, so an append by the handler reallocates
// instead of spilling into the next frame. Empty args stage as nil.
func (s *callStack) pushArgs(args []byte) []byte {
	n := len(args)
	if n == 0 {
		return nil
	}
	if s.top+n > len(s.buf) {
		// Live frames keep the old buffer alive through their own slices;
		// the new one is used from the same offset on.
		s.buf = make([]byte, max(2*len(s.buf), s.top+n))
	}
	staged := s.buf[s.top : s.top+n : s.top+n]
	copy(staged, args)
	s.top += n
	return staged
}

// popArgs releases everything staged since the stack's top was top. A
// result that shares the staged bytes (a handler may return args or a
// slice of it) is copied out first, so a later call cannot overwrite it and
// ownership of a result still passes to the caller.
func (s *callStack) popArgs(top int, staged, out []byte) []byte {
	if overlaps(out, staged) {
		out = bytes.Clone(out)
	}
	s.top = top
	return out
}

// overlaps reports whether the capacity ranges of a and b share a byte, so
// that an append to a result could write into staged bytes too.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}
