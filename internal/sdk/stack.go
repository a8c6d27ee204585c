package sdk

import (
	"bytes"
	"unsafe"
)

// callStack is one core's LIFO staging area for trusted calls: the
// simulator's counterpart of the enclave stack onto which an SGX edger8r
// bridge copies [in] arguments that live only for the call. Every ecall,
// n_ecall and n_ocall copies its arguments onto the stack of the core it
// runs on and takes its Env frame from it, every Env.Read reserves its
// result above them, and the call pops all of it when it returns, fails or
// crashes. A call chain never leaves the core acquireCore gave it, and a
// core serves one chain at a time, so the stack needs no lock. Once it has
// grown to a chain's deepest nesting, largest arguments and reads, a call
// allocates nothing, unless those stage more than maxKeptStack bytes.
type callStack struct {
	buf   []byte // staged arguments and Read results; live frames own buf[:top]
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

// push reserves n bytes on the stack and returns them. Their capacity ends
// at their length, so an append by the handler reallocates instead of
// spilling into the next reservation. An empty reservation is nil.
func (s *callStack) push(n int) []byte {
	if n == 0 {
		return nil
	}
	if s.top+n > len(s.buf) {
		// Live frames keep the old buffer alive through their own slices;
		// the new one is used from the same offset on, and the old one is
		// never staged into again. Growth within maxKeptStack stops there,
		// so a chain that stages no more than that keeps its buffer.
		size := max(2*len(s.buf), s.top+n)
		if s.top+n <= maxKeptStack {
			size = min(size, maxKeptStack)
		}
		s.buf = make([]byte, size)
	}
	b := s.buf[s.top : s.top+n : s.top+n]
	s.top += n
	return b
}

// pushArgs copies args onto the stack and returns the copy: the private
// buffer the handler runs on, which the caller can no longer change.
func (s *callStack) pushArgs(args []byte) []byte {
	staged := s.push(len(args))
	copy(staged, args)
	return staged
}

// maxKeptStack bounds the buffer a core's staging stack keeps between call
// chains: a chain that staged more (large args or a large Read) leaves its
// buffer behind when the stack empties, so one large call does not pin its
// bytes on the core for the host's lifetime. A chain that stages at most
// this much allocates nothing once the stack has grown.
const maxKeptStack = 64 << 10

// popTo releases everything staged since the stack's top was top and clears
// it, so a slice kept past its call reads zeros, not a later call's bytes.
// Bytes left in a buffer the stack outgrew are not cleared, but no later
// call writes them either. An emptied stack drops a buffer larger than
// maxKeptStack.
func (s *callStack) popTo(top int) {
	clear(s.buf[top:s.top])
	s.top = top
	if top == 0 && len(s.buf) > maxKeptStack {
		s.buf = nil
	}
}

// popArgs releases the frame that began when the stack's top was top: its
// args and every Read result it staged. A result that shares those bytes
// (a handler may return its args, a Read result or a slice of either) is
// copied out first, so ownership of a result still passes to the caller.
// Only the current buffer is checked: a buffer that a later push outgrew
// is never staged into again, so a result there stays intact.
func (s *callStack) popArgs(top int, out []byte) []byte {
	if overlaps(out, s.buf[top:]) {
		out = bytes.Clone(out)
	}
	s.popTo(top)
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
