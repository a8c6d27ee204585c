package channel_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"nestedenclave/internal/channel"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
)

// registerOuterMemCalls adds the outer enclave's plain reads and writes of
// its own memory: what an outer needs to rewrite ring words under its
// inners.
func registerOuterMemCalls(img *sdk.Image) {
	img.RegisterECall("mem_write", func(env *sdk.Env, args []byte) ([]byte, error) {
		return nil, env.C.Write(isa.VAddr(le64(args[:8])), args[8:])
	})
	img.RegisterECall("mem_read", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.C.Read(isa.VAddr(le64(args[:8])), int(le64(args[8:16])))
	})
}

// poke has the outer enclave write b at v.
func (r *outerRig) poke(t testing.TB, v isa.VAddr, b []byte) {
	t.Helper()
	args := append(u64(uint64(v)), b...)
	if _, err := r.outer.ECall("mem_write", args); err != nil {
		t.Fatal(err)
	}
}

// peek has the outer enclave read n bytes at v.
func (r *outerRig) peek(t testing.TB, v isa.VAddr, n int) []byte {
	t.Helper()
	args := append(u64(uint64(v)), u64(uint64(n))...)
	out, err := r.outer.ECall("mem_read", args)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// send and recv run one channel operation inside enclave e.
func (r *outerRig) send(e *sdk.Enclave, size uint64, payload []byte) (bool, error) {
	out, err := e.ECall("ch_send", chArgs(r.chBase, size, payload))
	if err != nil {
		return false, err
	}
	return out[0] == 1, nil
}

func (r *outerRig) recv(e *sdk.Enclave, size uint64) ([]byte, bool, error) {
	out, err := e.ECall("ch_recv", chArgs(r.chBase, size, nil))
	if err != nil {
		return nil, false, err
	}
	return out[1:], out[0] == 1, nil
}

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestOuterRecvRejectsOverlongFrame is a malicious outer rewriting a queued
// frame's length word from 5 to 64: the receiver must refuse the frame
// rather than accept 59 bytes that were never sent, and both ends must
// refuse a head pushed past the tail rather than read a phantom message or
// a ring that is full forever.
func TestOuterRecvRejectsOverlongFrame(t *testing.T) {
	r := newOuterRig(t, 16)
	const size = 4096
	if _, err := r.outer.ECall("ch_init", chArgs(r.chBase, size, nil)); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.send(r.in1, size, []byte("hello")); !ok || err != nil {
		t.Fatalf("send: %v %v", ok, err)
	}
	r.poke(t, r.chBase+16, u32(64))
	if p, ok, err := r.recv(r.in2, size); !errors.Is(err, channel.ErrCorruptRing) {
		t.Fatalf("overlong frame: recv = %q, %v, %v; want ErrCorruptRing", p, ok, err)
	}
	// The refusal consumed nothing: with the word restored, the frame
	// arrives intact.
	r.poke(t, r.chBase+16, u32(5))
	if p, ok, err := r.recv(r.in2, size); !ok || err != nil || string(p) != "hello" {
		t.Fatalf("restored frame: recv = %q, %v, %v", p, ok, err)
	}
	// Head 59 bytes past the tail: where accepting the overlong frame
	// would have left it.
	r.poke(t, r.chBase, u64(9+59))
	if p, ok, err := r.recv(r.in2, size); !errors.Is(err, channel.ErrCorruptRing) {
		t.Fatalf("head past tail: recv = %q, %v, %v; want ErrCorruptRing", p, ok, err)
	}
	if ok, err := r.send(r.in1, size, []byte("again")); !errors.Is(err, channel.ErrCorruptRing) {
		t.Fatalf("head past tail: send = %v, %v; want ErrCorruptRing", ok, err)
	}
}

// FuzzOuterRecv lets the outer enclave rewrite the ring's head and tail
// words and one queued frame's length word under its inners, then drains
// the ring from the receiving inner and sends once more from the other.
// The 64-byte ring is set up the same way for every input: a 46-byte
// pre-roll frame is sent and received, so the three queued frames start at
// offset 50 and the second wraps.
//
// Required: no panic, and every error wraps ErrCorruptRing. Every accepted
// payload is the frame at the receiver's cursor and ends at or before the
// tail the header announced, so no byte past the tail is accepted and the
// cursor never passes the tail. With the words left honest, exactly the
// payloads sent arrive, in order. A lie that stays inside the announced
// window, such as a length word rewritten smaller, yields a payload that
// was never sent as one: the ring carries no integrity check that could
// tell, and this fuzzer does not ask it to.
func FuzzOuterRecv(f *testing.F) {
	const size = 64
	sent := [][]byte{[]byte("hello"), []byte("world!"), []byte("x")}
	const trueHead, trueTail = 50, 74
	starts := []uint64{50, 59, 69}                                 // each queued frame's length word
	f.Add(uint64(trueHead), uint64(trueTail), uint8(0), uint32(5)) // honest; lies are in testdata
	r := newOuterRig(f, 16)
	f.Fuzz(func(t *testing.T, head, tail uint64, frame uint8, length uint32) {
		if _, err := r.outer.ECall("ch_init", chArgs(r.chBase, size, nil)); err != nil {
			t.Fatal(err)
		}
		if ok, err := r.send(r.in1, size, bytes.Repeat([]byte{'p'}, 46)); !ok || err != nil {
			t.Fatalf("pre-roll send: %v %v", ok, err)
		}
		if _, ok, err := r.recv(r.in2, size); !ok || err != nil {
			t.Fatalf("pre-roll recv: %v %v", ok, err)
		}
		for _, p := range sent {
			if ok, err := r.send(r.in1, size, p); !ok || err != nil {
				t.Fatalf("send %q: %v %v", p, ok, err)
			}
		}
		i := int(frame) % len(sent)
		honest := head == trueHead && tail == trueTail && length == uint32(len(sent[i]))
		r.poke(t, r.chBase, append(u64(head), u64(tail)...))
		r.poke(t, r.chBase+16+isa.VAddr(starts[i]%size), u32(length))
		ring := r.peek(t, r.chBase+16, size)
		at := func(off uint64, n int) []byte {
			out := make([]byte, n)
			for j := range out {
				out[j] = ring[(off+uint64(j))%size]
			}
			return out
		}

		cursor, got := head, 0
		for ; ; got++ {
			if got > size/4 {
				t.Fatalf("%d frames accepted from a %d-byte ring", got, size)
			}
			p, ok, err := r.recv(r.in2, size)
			if err != nil {
				if !errors.Is(err, channel.ErrCorruptRing) {
					t.Fatalf("untyped error: %v", err)
				}
				break
			}
			if !ok {
				if cursor != tail {
					t.Fatalf("ring reported empty with head %d, tail %d", cursor, tail)
				}
				break
			}
			end := cursor + 4 + uint64(len(p))
			if tail-head > size || end-head > tail-head {
				t.Fatalf("accepted %q ending at %d from the window [%d, %d) of a %d-byte ring", p, end, head, tail, size)
			}
			if !bytes.Equal(p, at(cursor+4, len(p))) {
				t.Fatalf("accepted %q, but the frame at %d holds %q", p, cursor, at(cursor+4, len(p)))
			}
			if honest && !bytes.Equal(p, sent[got]) {
				t.Fatalf("honest ring delivered %q as message %d, want %q", p, got, sent[got])
			}
			cursor = end
		}
		if honest && got != len(sent) {
			t.Fatalf("honest ring delivered %d of %d messages", got, len(sent))
		}
		if _, err := r.send(r.in1, size, []byte("z")); err != nil && !errors.Is(err, channel.ErrCorruptRing) {
			t.Fatalf("send after the rewrite: untyped error: %v", err)
		}
	})
}
