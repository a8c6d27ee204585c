package ssl

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// The handshake is a compact TLS-1.3-flavoured exchange:
//
//	C -> S  ClientHello  {version, clientRandom[32], clientPub[32]}
//	S -> C  ServerHello  {version, serverRandom[32], serverPub[32],
//	                      finishedMAC = HMAC(master, transcript)}
//	C -> S  ClientFinished {finishedMAC' = HMAC(master, transcript|"c")}
//
// Both finished MACs cover the full transcript *as each side saw it*, so any
// man-in-the-middle edit — in particular downgrading the version field (the
// rollback attack the paper's echo server guards against) — causes a key or
// MAC mismatch and the handshake aborts.

const (
	helloLen  = 2 + 32 + 32
	shelloLen = 2 + 32 + 32 + 32
	cfinLen   = 32
)

// Client is the initiator's handshake state machine plus record layer.
type Client struct {
	cfg        Config
	priv       *ecdh.PrivateKey
	hello      []byte
	transcript []byte
	master     []byte
	*suite
}

// NewClient prepares a client endpoint.
func NewClient(cfg Config) (*Client, error) {
	priv, err := newKeyPair()
	if err != nil {
		return nil, err
	}
	return &Client{cfg: cfg, priv: priv}, nil
}

// Hello produces the ClientHello message.
func (c *Client) Hello() []byte {
	msg := make([]byte, helloLen)
	binary.BigEndian.PutUint16(msg[0:2], c.cfg.version())
	copy(msg[2:34], randomBytes(32))
	copy(msg[34:66], c.priv.PublicKey().Bytes())
	c.hello = msg
	c.transcript = append([]byte(nil), msg...)
	return msg
}

// HandleServerHello verifies the server's reply and finishes key derivation,
// returning the ClientFinished message.
func (c *Client) HandleServerHello(msg []byte) ([]byte, error) {
	if c.hello == nil {
		return nil, fmt.Errorf("ssl: HandleServerHello before Hello")
	}
	if len(msg) != shelloLen {
		return nil, fmt.Errorf("ssl: malformed ServerHello (%d bytes)", len(msg))
	}
	version := binary.BigEndian.Uint16(msg[0:2])
	if version != c.cfg.version() {
		return nil, fmt.Errorf("ssl: server selected version %#x, offered %#x (possible rollback)", version, c.cfg.version())
	}
	if c.cfg.MinVersion != 0 && version < c.cfg.MinVersion {
		return nil, fmt.Errorf("ssl: version %#x below client minimum %#x", version, c.cfg.MinVersion)
	}
	serverPub, err := ecdh.X25519().NewPublicKey(msg[34:66])
	if err != nil {
		return nil, fmt.Errorf("ssl: bad server key: %w", err)
	}
	shared, err := c.priv.ECDH(serverPub)
	if err != nil {
		return nil, err
	}
	c.transcript = append(c.transcript, msg[:66]...)
	var vb [2]byte
	binary.BigEndian.PutUint16(vb[:], version)
	c.master = hkdfLike(shared, c.transcript, "master"+string(vb[:]))

	// Verify the server's finished MAC over the transcript.
	wantMAC := hmac.New(sha256.New, c.master)
	wantMAC.Write(c.transcript)
	if !hmac.Equal(wantMAC.Sum(nil), msg[66:98]) {
		return nil, fmt.Errorf("ssl: server finished MAC mismatch (transcript tampered)")
	}
	s, err := deriveSuite(shared, c.transcript, version, true)
	if err != nil {
		return nil, err
	}
	c.suite = s

	fin := hmac.New(sha256.New, c.master)
	fin.Write(c.transcript)
	fin.Write([]byte("c"))
	return fin.Sum(nil), nil
}

// Server is the responder's handshake state machine plus record layer and
// heartbeat processor.
type Server struct {
	cfg  Config
	mem  Mem
	priv *ecdh.PrivateKey

	transcript []byte
	master     []byte
	done       bool
	*suite
}

// NewServer prepares a server endpoint whose record buffers live in the
// enclave memory behind mem.
func NewServer(cfg Config, mem Mem) (*Server, error) {
	priv, err := newKeyPair()
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, mem: mem, priv: priv}, nil
}

// HandleClientHello consumes the ClientHello and returns the ServerHello. A
// refused hello leaves the server's state as it was.
func (s *Server) HandleClientHello(msg []byte) ([]byte, error) {
	if len(msg) != helloLen {
		return nil, fmt.Errorf("ssl: malformed ClientHello (%d bytes)", len(msg))
	}
	version := binary.BigEndian.Uint16(msg[0:2])
	if s.cfg.MinVersion != 0 && version < s.cfg.MinVersion {
		return nil, fmt.Errorf("ssl: client version %#x below server minimum %#x (rollback rejected)", version, s.cfg.MinVersion)
	}
	clientPub, err := ecdh.X25519().NewPublicKey(msg[34:66])
	if err != nil {
		return nil, fmt.Errorf("ssl: bad client key: %w", err)
	}
	shared, err := s.priv.ECDH(clientPub)
	if err != nil {
		return nil, err
	}
	reply := make([]byte, shelloLen)
	binary.BigEndian.PutUint16(reply[0:2], version)
	copy(reply[2:34], randomBytes(32))
	copy(reply[34:66], s.priv.PublicKey().Bytes())

	transcript := append(append([]byte(nil), msg...), reply[:66]...)
	var vb [2]byte
	binary.BigEndian.PutUint16(vb[:], version)
	master := hkdfLike(shared, transcript, "master"+string(vb[:]))
	fin := hmac.New(sha256.New, master)
	fin.Write(transcript)
	copy(reply[66:98], fin.Sum(nil))

	st, err := deriveSuite(shared, transcript, version, false)
	if err != nil {
		return nil, err
	}
	// An accepted hello starts a new handshake: records are refused until
	// its ClientFinished verifies, even after an earlier handshake finished.
	s.transcript, s.master, s.suite, s.done = transcript, master, st, false
	return reply, nil
}

// HandleClientFinished verifies the client's finished MAC, completing the
// handshake.
func (s *Server) HandleClientFinished(msg []byte) error {
	if s.suite == nil {
		return fmt.Errorf("ssl: finished before hello")
	}
	if len(msg) != cfinLen {
		return fmt.Errorf("ssl: malformed ClientFinished")
	}
	want := hmac.New(sha256.New, s.master)
	want.Write(s.transcript)
	want.Write([]byte("c"))
	if !hmac.Equal(want.Sum(nil), msg) {
		return fmt.Errorf("ssl: client finished MAC mismatch (transcript tampered)")
	}
	s.done = true
	return nil
}

// Handshaken reports whether the handshake completed.
func (s *Server) Handshaken() bool { return s.done }
