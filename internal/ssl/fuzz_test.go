package ssl

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// Steps of a FuzzServerMessages script. Each step is four input bytes:
// kind, mutation, and two arguments.
const (
	stepHello     = iota // the current client sends a (new) ClientHello
	stepNewHello         // a fresh client replaces the current one and sends its hello
	stepFinished         // the current client's ClientFinished
	stepAppData          // an application record sealed by the current client
	stepHeartbeat        // a heartbeat record sealed by the current client
	numStepKinds
)

// mutate applies the step's mutation to a message: none, a byte flip, a
// truncation, or an extension. Every mutation other than none changes the
// bytes, so the server must refuse the result (or, for a hello, derive keys
// the genuine client cannot share).
func mutate(msg []byte, kind, a, b byte) (out []byte, mutated bool) {
	out = append([]byte(nil), msg...)
	switch kind % 4 {
	case 1:
		if len(out) > 0 {
			out[int(a)%len(out)] ^= b | 1
			return out, true
		}
		fallthrough
	case 3:
		return append(out, bytes.Repeat([]byte{b}, int(a)%4+1)...), true
	case 2:
		if len(out) > 0 {
			return out[:int(a)%len(out)], true
		}
		return out, false
	}
	return out, false
}

// FuzzServerMessages drives one fixed-build Server with a script of
// messages from genuine clients, each possibly mutated, and checks the
// server against a model of the protocol: it never panics, every message it
// refuses returns an error (a malformed heartbeat may be discarded silently,
// per RFC 6520), and the handler receives exactly the application payloads
// the client sealed after a ClientFinished the server verified — in order,
// none twice, nothing else.
func FuzzServerMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		s, err := NewServer(Config{}, newFlatMem(1<<16))
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		handler := func(req []byte) []byte { got = append(got, string(req)); return nil }

		// The model. A handshake is numbered when the server accepts its
		// hello. The client's latest ClientFinished (fin) belongs to
		// handshake clientHS, the client holds the keys of handshake
		// clientKeys (0: none), and the server those of serverKeys (-1: a
		// mutated hello's keys, no client's). lost means a record the client
		// sealed under the server's keys was refused, so the client's
		// sequence number is ahead of the server's for the rest of that
		// handshake.
		var (
			c          *Client
			fin        []byte
			handshakes int
			clientHS   int // handshake of the current hello and fin
			clientKeys int
			serverKeys int
			finished   bool
			lost       bool
		)
		for i := 0; i+4 <= len(script) && i < 4*64; i += 4 {
			kind, mut, a, b := script[i]%numStepKinds, script[i+1], script[i+2], script[i+3]
			switch kind {
			case stepHello, stepNewHello:
				if c == nil || kind == stepNewHello {
					if c, err = NewClient(Config{}); err != nil {
						t.Fatal(err)
					}
					fin, clientHS, clientKeys = nil, 0, 0
				}
				msg, mutated := mutate(c.Hello(), mut, a, b)
				reply, err := s.HandleClientHello(msg)
				if err != nil {
					continue // refused: the server keeps the session it had
				}
				if len(msg) != helloLen {
					t.Fatalf("step %d: %d-byte ClientHello accepted", i/4, len(msg))
				}
				handshakes++
				finished, lost, serverKeys = false, false, -1
				if mutated {
					continue
				}
				if fin, err = c.HandleServerHello(reply); err != nil {
					t.Fatalf("step %d: genuine client refused the reply to its own hello: %v", i/4, err)
				}
				clientHS, clientKeys, serverKeys = handshakes, handshakes, handshakes
			case stepFinished:
				msg, mutated := mutate(fin, mut, a, b)
				err := s.HandleClientFinished(msg)
				accept := fin != nil && !mutated && clientHS == serverKeys
				if accept != (err == nil) {
					t.Fatalf("step %d: ClientFinished (mutated %v, handshake %d, server's %d): err %v",
						i/4, mutated, clientHS, serverKeys, err)
				}
				if accept {
					finished = true
				}
			case stepAppData, stepHeartbeat:
				if clientKeys == 0 {
					continue // nothing sealed to send
				}
				payload := []byte(fmt.Sprintf("step %d arg %d", i/4, a))
				claimed := len(payload)
				var rec []byte
				if kind == stepAppData {
					rec, err = c.Send(payload)
				} else {
					if b%4 == 0 {
						claimed += int(a)%8 + 1 // overlong claim: silently discarded
					}
					rec, err = c.Heartbeat(payload, claimed)
				}
				if err != nil {
					t.Fatal(err)
				}
				msg, mutated := mutate(rec, mut, a, b)
				n := len(got)
				resp, err := s.ProcessRecord(msg, handler)
				deliver := finished && !lost && !mutated && clientKeys == serverKeys
				if !deliver {
					if err == nil {
						t.Fatalf("step %d: record (mutated %v, finished %v, lost %v, keys %d/%d) accepted",
							i/4, mutated, finished, lost, clientKeys, serverKeys)
					}
					if clientKeys == serverKeys {
						lost = true
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: genuine record refused: %v", i/4, err)
				}
				if kind == stepAppData {
					want = append(want, string(payload))
					continue
				}
				if len(got) != n {
					t.Fatalf("step %d: heartbeat reached the application handler", i/4)
				}
				if claimed != len(payload) {
					if resp != nil {
						t.Fatalf("step %d: heartbeat claiming %d of %d bytes answered", i/4, claimed, len(payload))
					}
					continue
				}
				echo, err := c.OpenHeartbeatResponse(resp)
				if err != nil || !bytes.Equal(echo, payload) {
					t.Fatalf("step %d: heartbeat echoed %q (%v), want %q", i/4, echo, err, payload)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("handler received %q, want %q", got, want)
		}
	})
}
