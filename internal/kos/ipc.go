package kos

import "sync"

// IPCService is the OS-provided inter-process/inter-enclave message channel
// — the communication path the current SGX model forces peer enclaves onto.
//
// Because the kernel implements it, the kernel is an active man in the
// middle. Every send asks the machine's platform (sgx.Hostile.Route) what
// to enqueue, which is how the Panoply-style attacks of §VII-B are
// reproduced: the OS "can drop an IPC request selectively or create a fake
// or old message", and it can read any plaintext that crosses the channel
// (Eavesdrop). Enclaves defending themselves here must layer authenticated
// encryption on top (package channel's GCMChannel); nested enclaves instead
// route messages through outer-enclave memory the kernel cannot touch.
type IPCService struct {
	k  *Kernel
	mu sync.Mutex

	queues map[string][][]byte
	// log holds every payload ever sent on each channel, in order: the
	// kernel's log, which Route may replay from and Eavesdrop reads.
	log map[string][][]byte
}

// NewIPCService creates the kernel's IPC router.
func NewIPCService(k *Kernel) *IPCService {
	return &IPCService{
		k:      k,
		queues: make(map[string][][]byte),
		log:    make(map[string][][]byte),
	}
}

// Kernel returns the kernel that owns the router.
func (s *IPCService) Kernel() *Kernel { return s.k }

// Send logs a copy of the payload and enqueues on the named channel what
// the platform's Route returns for it.
func (s *IPCService) Send(channel string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	msg := append([]byte(nil), payload...)
	log := append(s.log[channel], msg)
	s.log[channel] = log
	s.queues[channel] = append(s.queues[channel], s.k.m.Hostile().Route(channel, log, msg)...)
}

// TryRecv dequeues the next message, if any.
func (s *IPCService) TryRecv(channel string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[channel]
	if len(q) == 0 {
		return nil, false
	}
	s.queues[channel] = q[1:]
	return q[0], true
}

// Eavesdrop returns the kernel's log of every payload sent on the channel —
// the OS can always read what crosses its own IPC path.
func (s *IPCService) Eavesdrop(channel string) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, 0, len(s.log[channel]))
	for _, m := range s.log[channel] {
		out = append(out, append([]byte(nil), m...))
	}
	return out
}
