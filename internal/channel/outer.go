package channel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

// OuterChannel is a single-producer single-consumer ring buffer located in
// an outer enclave's memory. Peer inner enclaves (and the outer enclave
// itself) read and write it through the hardware-validated access path: the
// kernel and unrelated enclaves see only abort-page 0xFF.
//
// Layout at Base (all fields little-endian):
//
//	+0   head  (u64)  — byte offset of next read, mod DataSize
//	+8   tail  (u64)  — byte offset of next write, mod DataSize
//	+16  data  [DataSize]byte
//
// Messages are framed as u32 length + payload, wrapping at the end of the
// data area. Offsets monotonically increase; head==tail means empty. The
// structure itself carries no crypto: hardware protection of the outer
// enclave's memory is the whole point.
//
// Both ends still check the ring's words before trusting them, since the
// outer enclave can rewrite them: a header whose tail is more than a ring
// ahead of its head (or behind it), or a frame that runs past the tail, is
// an error wrapping ErrCorruptRing, never a payload or a ring that reads
// as full forever. The ring cannot tell a lie that stays inside the window
// [head, tail), such as a length word rewritten smaller.
type OuterChannel struct {
	base isa.VAddr
	size uint64 // data area size
}

const hdrSize = 16

// ErrCorruptRing is wrapped by every error that reports ring words no honest
// sender or receiver could have written.
var ErrCorruptRing = errors.New("channel: corrupt ring")

// window checks the header's claim that tail-head bytes are queued.
func (ch *OuterChannel) window(head, tail uint64) (uint64, error) {
	if tail-head > ch.size {
		return 0, fmt.Errorf("%w: tail %d is not within %d bytes after head %d", ErrCorruptRing, tail, ch.size, head)
	}
	return tail - head, nil
}

// NewOuter creates a channel descriptor over [base, base+hdrSize+size) of
// outer-enclave memory. The creator (outer enclave code) must zero the
// header before first use; Init does that.
func NewOuter(base isa.VAddr, size uint64) (*OuterChannel, error) {
	if size == 0 || size%8 != 0 {
		return nil, fmt.Errorf("channel: data size %d must be a positive multiple of 8", size)
	}
	return &OuterChannel{base: base, size: size}, nil
}

// Init zeroes the ring state. Must run in a context that can write the
// outer enclave's memory (the outer enclave or one of its inners).
func (ch *OuterChannel) Init(c *sgx.Core) error {
	return c.Write(ch.base, make([]byte, hdrSize))
}

// Footprint returns the total bytes of outer-enclave memory the channel
// occupies — the quantity Figure 11 varies against the LLC size.
func (ch *OuterChannel) Footprint() uint64 { return hdrSize + ch.size }

func (ch *OuterChannel) readU64(c *sgx.Core, off uint64) (uint64, error) {
	return c.ReadU64(ch.base + isa.VAddr(off))
}

func (ch *OuterChannel) writeU64(c *sgx.Core, off uint64, v uint64) error {
	return c.WriteU64(ch.base+isa.VAddr(off), v)
}

// dataWrite writes b at ring offset off (mod size), wrapping.
func (ch *OuterChannel) dataWrite(c *sgx.Core, off uint64, b []byte) error {
	off %= ch.size
	first := min(uint64(len(b)), ch.size-off)
	if err := c.Write(ch.base+hdrSize+isa.VAddr(off), b[:first]); err != nil {
		return err
	}
	if first < uint64(len(b)) {
		return c.Write(ch.base+hdrSize, b[first:])
	}
	return nil
}

func (ch *OuterChannel) dataRead(c *sgx.Core, off uint64, n uint64) ([]byte, error) {
	off %= ch.size
	out := make([]byte, n)
	first := min(n, ch.size-off)
	if err := c.ReadInto(ch.base+hdrSize+isa.VAddr(off), out[:first]); err != nil {
		return nil, err
	}
	if first < n {
		if err := c.ReadInto(ch.base+hdrSize, out[first:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Send enqueues the payload. Returns false (without writing) when the ring
// lacks space.
func (ch *OuterChannel) Send(c *sgx.Core, payload []byte) (bool, error) {
	need := uint64(4 + len(payload))
	if need > ch.size {
		return false, fmt.Errorf("channel: message of %d bytes exceeds ring capacity %d", len(payload), ch.size)
	}
	head, err := ch.readU64(c, 0)
	if err != nil {
		return false, err
	}
	tail, err := ch.readU64(c, 8)
	if err != nil {
		return false, err
	}
	queued, err := ch.window(head, tail)
	if err != nil {
		return false, err
	}
	if queued+need > ch.size {
		return false, nil // full
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if err := ch.dataWrite(c, tail, lenBuf[:]); err != nil {
		return false, err
	}
	if err := ch.dataWrite(c, tail+4, payload); err != nil {
		return false, err
	}
	return true, ch.writeU64(c, 8, tail+need)
}

// Recv dequeues the next payload, if any.
func (ch *OuterChannel) Recv(c *sgx.Core) ([]byte, bool, error) {
	head, err := ch.readU64(c, 0)
	if err != nil {
		return nil, false, err
	}
	tail, err := ch.readU64(c, 8)
	if err != nil {
		return nil, false, err
	}
	if head == tail {
		return nil, false, nil
	}
	queued, err := ch.window(head, tail)
	if err != nil {
		return nil, false, err
	}
	lenBuf, err := ch.dataRead(c, head, 4)
	if err != nil {
		return nil, false, err
	}
	n := uint64(binary.LittleEndian.Uint32(lenBuf))
	if 4+n > queued {
		return nil, false, fmt.Errorf("%w: frame of %d bytes at %d runs past tail %d", ErrCorruptRing, n, head, tail)
	}
	payload, err := ch.dataRead(c, head+4, n)
	if err != nil {
		return nil, false, err
	}
	return payload, true, ch.writeU64(c, 0, head+4+n)
}
