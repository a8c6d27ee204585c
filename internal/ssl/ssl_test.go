package ssl

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/talloc"
)

// flatMem is a plain in-process Mem: a flat slab with a talloc heap on top.
// It mimics the monolithic-enclave situation where everything the library
// over-reads is readable.
type flatMem struct {
	base isa.VAddr
	slab []byte
	heap *talloc.Heap
}

func newFlatMem(size int) *flatMem {
	base := isa.VAddr(0x10000)
	return &flatMem{base: base, slab: make([]byte, size), heap: talloc.New(base, uint64(size))}
}

func (m *flatMem) Read(v isa.VAddr, n int) ([]byte, error) {
	out := make([]byte, n)
	copy(out, m.slab[v-m.base:])
	return out, nil
}

func (m *flatMem) Write(v isa.VAddr, b []byte) error {
	copy(m.slab[v-m.base:], b)
	return nil
}

func (m *flatMem) Malloc(n int) (isa.VAddr, error) { return m.heap.Alloc(n) }
func (m *flatMem) Free(v isa.VAddr) error          { return m.heap.Free(v) }

// handshake runs the three-message exchange between c and s.
func handshake(t *testing.T, c *Client, s *Server) error {
	t.Helper()
	sh, err := s.HandleClientHello(c.Hello())
	if err != nil {
		return err
	}
	cf, err := c.HandleServerHello(sh)
	if err != nil {
		return err
	}
	return s.HandleClientFinished(cf)
}

func newPair(t *testing.T, ccfg, scfg Config) (*Client, *Server, *flatMem) {
	t.Helper()
	mem := newFlatMem(1 << 16)
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(scfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	return c, s, mem
}

func TestHandshakeAndEcho(t *testing.T) {
	c, s, _ := newPair(t, Config{}, Config{})
	if err := handshake(t, c, s); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if !s.Handshaken() {
		t.Fatal("server not handshaken")
	}
	rec, err := c.Send([]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.ProcessRecord(rec, func(req []byte) []byte {
		return append([]byte("echo:"), req...)
	})
	if err != nil {
		t.Fatal(err)
	}
	typ, pt, err := c.Recv(resp)
	if err != nil || typ != recAppData || string(pt) != "echo:ping" {
		t.Fatalf("echo: %d %q %v", typ, pt, err)
	}
}

func TestRecordTamperDetected(t *testing.T) {
	c, s, _ := newPair(t, Config{}, Config{})
	if err := handshake(t, c, s); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.Send([]byte("data"))
	rec[len(rec)-1] ^= 1
	if _, err := s.ProcessRecord(rec, func(b []byte) []byte { return b }); err == nil {
		t.Fatal("tampered record accepted")
	}
}

func TestReplayDetected(t *testing.T) {
	c, s, _ := newPair(t, Config{}, Config{})
	if err := handshake(t, c, s); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.Send([]byte("one"))
	if _, err := s.ProcessRecord(rec, func(b []byte) []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessRecord(rec, func(b []byte) []byte { return nil }); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestVersionRollbackRejected(t *testing.T) {
	// A MITM rewrites the ClientHello version down to the legacy protocol.
	c, s, _ := newPair(t, Config{Version: VersionTLS13Like}, Config{MinVersion: VersionTLS12Like})
	hello := c.Hello()
	binary.BigEndian.PutUint16(hello[0:2], VersionLegacy)
	_, err := s.HandleClientHello(hello)
	if err == nil || !strings.Contains(err.Error(), "rollback") {
		t.Fatalf("rollback not rejected: %v", err)
	}

	// Without a server minimum, the downgrade is caught by the transcript
	// MACs instead: the client's transcript disagrees with the server's.
	c2, s2, _ := newPair(t, Config{Version: VersionTLS13Like}, Config{})
	hello2 := c2.Hello()
	tampered := append([]byte(nil), hello2...)
	binary.BigEndian.PutUint16(tampered[0:2], VersionLegacy)
	sh, err := s2.HandleClientHello(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.HandleServerHello(sh); err == nil {
		t.Fatal("transcript tampering not detected by client")
	}
}

func TestBenignHeartbeat(t *testing.T) {
	c, s, _ := newPair(t, Config{}, Config{Vulnerable: true})
	if err := handshake(t, c, s); err != nil {
		t.Fatal(err)
	}
	payload := []byte("are-you-alive")
	req, err := c.Heartbeat(payload, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.ProcessRecord(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	echo, err := c.OpenHeartbeatResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatalf("echoed %q", echo)
	}
}

func TestHeartbleedLeaksAdjacentHeap(t *testing.T) {
	c, s, mem := newPair(t, Config{}, Config{Vulnerable: true})
	if err := handshake(t, c, s); err != nil {
		t.Fatal(err)
	}
	// Arrange the classic Heartbleed heap: a low extent is freed (it will
	// be reused to stage the incoming record, first-fit) and a secret lives
	// in the allocation right above it — within over-read range.
	hole, err := mem.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	secretBuf, err := mem.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("SECRET-PRIVATE-KEY-MATERIAL-0xDEADBEEF")
	if err := mem.Write(secretBuf, secret); err != nil {
		t.Fatal(err)
	}
	if err := mem.Free(hole); err != nil {
		t.Fatal(err)
	}

	req, err := c.Heartbeat([]byte("x"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.ProcessRecord(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	leak, err := c.OpenHeartbeatResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(leak, secret) {
		t.Fatal("vulnerable heartbeat did not reproduce the over-read leak")
	}
}

func TestFixedHeartbeatDiscardsOversizedClaim(t *testing.T) {
	c, s, mem := newPair(t, Config{}, Config{Vulnerable: false})
	if err := handshake(t, c, s); err != nil {
		t.Fatal(err)
	}
	secretBuf, _ := mem.Malloc(64)
	if err := mem.Write(secretBuf, []byte("SECRET")); err != nil {
		t.Fatal(err)
	}
	req, _ := c.Heartbeat([]byte("x"), 4096)
	resp, err := s.ProcessRecord(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatal("patched server answered an oversized heartbeat claim")
	}
	// And benign heartbeats still work.
	req, _ = c.Heartbeat([]byte("ok"), 2)
	resp, err = s.ProcessRecord(req, nil)
	if err != nil || resp == nil {
		t.Fatalf("benign heartbeat on patched server: %v", err)
	}
}

func TestRecordBeforeHandshakeRejected(t *testing.T) {
	c, s, _ := newPair(t, Config{}, Config{})
	if _, err := c.Send([]byte("x")); err == nil {
		t.Fatal("client send before handshake accepted")
	}
	if _, err := s.ProcessRecord([]byte{recAppData, 0, 0}, nil); err == nil {
		t.Fatal("server record before handshake accepted")
	}
	if _, err := c.Heartbeat([]byte("x"), 1); err == nil {
		t.Fatal("heartbeat before handshake accepted")
	}
}

// TestSecondHelloRestartsHandshake pins that a hello the server accepts
// starts a new handshake even after one finished: a record sealed under the
// new keys is refused until that handshake's ClientFinished verifies, while
// a refused hello leaves the finished session as it was.
func TestSecondHelloRestartsHandshake(t *testing.T) {
	c, s, _ := newPair(t, Config{}, Config{})
	if err := handshake(t, c, s); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	var got []string
	handler := func(req []byte) []byte { got = append(got, string(req)); return nil }

	if _, err := s.HandleClientHello([]byte("short")); err == nil {
		t.Fatal("short ClientHello accepted")
	}
	rec, err := c.Send([]byte("finished"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessRecord(rec, handler); err != nil {
		t.Fatalf("record after a refused hello: %v", err)
	}

	c2, err := NewClient(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := s.HandleClientHello(c2.Hello())
	if err != nil {
		t.Fatal(err)
	}
	cf, err := c2.HandleServerHello(sh)
	if err != nil {
		t.Fatal(err)
	}
	if s.Handshaken() {
		t.Fatal("server reports a handshake whose ClientFinished it never saw")
	}
	rec, err = c2.Send([]byte("unfinished"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessRecord(rec, handler); err == nil {
		t.Fatal("record under unfinished handshake keys accepted")
	}
	if err := s.HandleClientFinished(cf); err != nil || !s.Handshaken() {
		t.Fatalf("ClientFinished of the new handshake: %v", err)
	}
	if len(got) != 1 || got[0] != "finished" {
		t.Fatalf("handler received %q, want [finished]", got)
	}
}

func TestMalformedMessages(t *testing.T) {
	c, s, _ := newPair(t, Config{}, Config{})
	if _, err := s.HandleClientHello([]byte("short")); err == nil {
		t.Fatal("short ClientHello accepted")
	}
	c.Hello()
	if _, err := c.HandleServerHello([]byte("short")); err == nil {
		t.Fatal("short ServerHello accepted")
	}
	if err := s.HandleClientFinished([]byte("short")); err == nil {
		t.Fatal("short finished accepted")
	}
	// Wrong client finished MAC.
	c2, s2, _ := newPair(t, Config{}, Config{})
	sh, err := s2.HandleClientHello(c2.Hello())
	if err != nil {
		t.Fatal(err)
	}
	cf, err := c2.HandleServerHello(sh)
	if err != nil {
		t.Fatal(err)
	}
	cf[0] ^= 1
	if err := s2.HandleClientFinished(cf); err == nil {
		t.Fatal("bad client finished accepted")
	}
}
