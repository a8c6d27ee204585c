package channel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nestedenclave/internal/sgx"
)

// scriptRoute is a kernel whose IPC router spends one scripted action per
// send, then routes honestly once the script is spent. Each action is one
// byte, followed by a parameter byte where it needs one (0 past the end):
//
//	0 deliver, 1 drop, 2 duplicate, 3 deliver plus frame p of the log,
//	4 flip bit p/256 of the way into the frame, 5 truncate to p/256 of
//	its length, 6 deliver plus the next p%32 script bytes as a forged frame.
type scriptRoute struct {
	sgx.Honest
	script []byte
}

func (s *scriptRoute) next() byte {
	if len(s.script) == 0 {
		return 0
	}
	b := s.script[0]
	s.script = s.script[1:]
	return b
}

func (s *scriptRoute) Route(_ string, log [][]byte, msg []byte) [][]byte {
	if len(s.script) == 0 {
		return [][]byte{msg}
	}
	switch s.next() % 7 {
	case 1:
		return nil
	case 2:
		return [][]byte{msg, msg}
	case 3:
		return [][]byte{msg, log[int(s.next())%len(log)]}
	case 4:
		flipped := append([]byte(nil), msg...)
		bit := int(s.next()) * len(msg) * 8 / 256
		flipped[bit/8] ^= 1 << (bit % 8)
		return [][]byte{flipped}
	case 5:
		return [][]byte{msg[:int(s.next())*len(msg)/256]}
	case 6:
		n := min(int(s.next())%32, len(s.script))
		forged := append([]byte(nil), s.script[:n]...)
		s.script = s.script[n:]
		return [][]byte{msg, forged}
	}
	return [][]byte{msg}
}

// FuzzReliableRoute drives a reliable channel through a kernel that drops,
// duplicates, replays, corrupts, truncates and forges frames. Bursts of one
// to three sends are each drained with the repair loop. Every accepted
// payload must be the next one sent, so none is forged or delivered twice,
// and every error must be a *GapError or a *ReplayError.
func FuzzReliableRoute(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0, 4, 77, 5, 128, 6, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		const frames, window = 16, 8
		k, tx, rx := reliablePair(t, window)
		k.Machine().SetHostile(&scriptRoute{script: script})
		payload := func(i int) []byte { return []byte(fmt.Sprintf("m%02d", i)) }
		typed := func(err error) {
			var ge *GapError
			var re *ReplayError
			if !errors.As(err, &ge) && !errors.As(err, &re) {
				t.Fatalf("untyped channel error: %v", err)
			}
		}
		sent, delivered := 0, 0
		for sent < frames {
			for n := 1 + sent%3; n > 0 && sent < frames; n-- {
				tx.Send(payload(sent))
				sent++
			}
			for guard := 0; delivered < sent; guard++ {
				if guard > 2*(len(script)+frames) {
					t.Fatalf("frame %d never delivered", delivered)
				}
				got, ok, err := rx.RecvRepaired(tx, 4)
				switch {
				case err != nil:
					typed(err)
				case !ok:
					// Withheld with nothing behind it to reveal the gap.
					if err := tx.Retransmit(uint64(delivered)); err != nil {
						t.Fatal(err)
					}
				default:
					if want := payload(delivered); !bytes.Equal(got, want) {
						t.Fatalf("frame %d accepted as %q, want %q", delivered, got, want)
					}
					delivered++
				}
			}
		}
		// Whatever is still queued is stale: nothing more may be accepted.
		for {
			pt, ok, err := rx.Recv()
			if err != nil {
				typed(err)
				continue
			}
			if !ok {
				break
			}
			t.Fatalf("payload %q accepted after all %d frames were delivered", pt, frames)
		}
	})
}
