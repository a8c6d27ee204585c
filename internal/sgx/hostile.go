package sgx

import "nestedenclave/internal/isa"

// Hostile is the untrusted platform's side of every decision the hardware
// leaves to it (paper §VII: the OS is outside the trust boundary). Each
// method is one decision point; the hardware model must contain whatever it
// returns. The machine consults exactly one Hostile, installed with
// SetHostile: Honest by default, the chaos injector for fault injection, the
// adversary engine for a lying kernel, or a test's scripted lie. An
// implementation embeds Honest and overrides only the points it attacks, so
// a new fault site or attack is one method here.
type Hostile interface {
	// Preempt runs before each access chunk on a core, without the machine
	// lock (AEX and ERESUME take it), in and out of enclave mode. A non-nil
	// error aborts the access: the interrupted enclave could not be
	// resumed and the core is out of enclave mode.
	Preempt(c *Core) error
	// Disturb receives a PRM line's ciphertext as the MEE fetches it from
	// DRAM, before integrity verification, and may flip its bits.
	Disturb(ct []byte)
	// AllocEPC can fail an EPC allocation (EADD/EAUG) in the kernel driver.
	AllocEPC() error
	// DeliverIPI decides whether the ETRACK shootdown IPI for the victim
	// enclave reaches the core.
	DeliverIPI(victim isa.EID, core int) bool
	// Evicted sees each sealed blob the pager stores in untrusted memory.
	Evicted(owner isa.EID, vpage isa.VAddr, blob *EvictedPage)
	// Reload returns the blob the pager hands to ELDU for a faulting page;
	// returning genuine is honest.
	Reload(owner isa.EID, vpage isa.VAddr, genuine *EvictedPage) *EvictedPage
	// Remap returns the frame the reloaded page is mapped at; returning
	// loaded, the EPC page ELDU just filled, is honest.
	Remap(owner isa.EID, vpage isa.VAddr, loaded isa.PAddr) isa.PAddr
	// Route returns what the kernel's IPC router enqueues for one send on
	// the channel: msg is the sent payload and log every payload sent on
	// the channel so far, msg included. Returning {msg} is honest. Route
	// runs under the router's lock and must not modify log or msg.
	Route(channel string, log [][]byte, msg []byte) [][]byte
}

// Honest is the platform that follows every protocol: each method is a
// no-op that returns the honest answer. Embed it to script one lie.
type Honest struct{}

func (Honest) Preempt(*Core) error                                        { return nil }
func (Honest) Disturb([]byte)                                             {}
func (Honest) AllocEPC() error                                            { return nil }
func (Honest) DeliverIPI(isa.EID, int) bool                               { return true }
func (Honest) Evicted(isa.EID, isa.VAddr, *EvictedPage)                   {}
func (Honest) Reload(_ isa.EID, _ isa.VAddr, g *EvictedPage) *EvictedPage { return g }
func (Honest) Remap(_ isa.EID, _ isa.VAddr, loaded isa.PAddr) isa.PAddr   { return loaded }
func (Honest) Route(_ string, _ [][]byte, msg []byte) [][]byte            { return [][]byte{msg} }

// SetHostile installs the platform the machine consults at every hook
// point, including the MEE's DRAM-fetch path; nil restores Honest. Call it
// while no core is executing: the hook points read it without the machine
// lock.
func (m *Machine) SetHostile(h Hostile) {
	if h == nil {
		h = Honest{}
	}
	m.hostile = h
	m.mee.Disturb = h.Disturb
}

// Hostile returns the installed platform (Honest unless SetHostile says
// otherwise).
func (m *Machine) Hostile() Hostile { return m.hostile }
