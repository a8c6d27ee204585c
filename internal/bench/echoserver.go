package bench

import (
	"bytes"
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/ssl"
)

// This file implements the §VI-A confinement case study: an SSL echo server
// in two builds.
//
//   - Monolithic: the SSL library and the application share one enclave —
//     the current SGX deployment model, vulnerable to Heartbleed-style
//     library bugs reading application memory.
//   - Nested: the SSL library runs in the outer enclave; the application
//     (and its secrets) in an inner enclave. Record processing crosses the
//     protection boundary via n_ecall.
//
// Lines that had to change to port the monolithic server to nested enclave
// carry a trailing "// PORT:" marker; TableIII counts them, reproducing the
// paper's modified-LOC methodology over this repository's own sources.

// envMem adapts the per-call sdk.Env to the ssl.Mem interface so the SSL
// server's enclave-resident state can span ecalls. Each entry point rebinds
// the cell before touching library state.
type envMem struct{ env *sdk.Env }

func (m *envMem) Read(v isa.VAddr, n int) ([]byte, error) { return m.env.Read(v, n) }
func (m *envMem) Write(v isa.VAddr, b []byte) error       { return m.env.Write(v, b) }
func (m *envMem) Malloc(n int) (isa.VAddr, error)         { return m.env.Malloc(n) }
func (m *envMem) Free(v isa.VAddr) error                  { return m.env.Free(v) }

// EchoServer is a deployed echo service (either build) plus the attacker's
// view (the TLS client).
type EchoServer struct {
	Nested bool
	// Entry receives the TLS wire traffic (the enclave hosting the SSL
	// library: the single enclave, or the outer enclave).
	Entry *sdk.Enclave
	// App hosts the application logic and its secrets (== Entry when
	// monolithic).
	App *sdk.Enclave

	srv *ssl.Server
	mem *envMem
}

// echoLayout sizes the enclave heaps: records up to 64 KiB stage through
// the library heap.
func echoLayout() sdk.Layout {
	l := sdk.DefaultLayout()
	l.HeapPages = 64
	return l
}

// BuildEchoServer deploys the case study on the rig. vulnerable selects the
// Heartbleed-buggy SSL build.
func BuildEchoServer(r *Rig, nested, vulnerable bool) (*EchoServer, error) {
	es := &EchoServer{Nested: nested, mem: &envMem{}}
	cfg := ssl.Config{Vulnerable: vulnerable, MinVersion: ssl.VersionTLS12Like}

	// The application request handler: echo, plus entry points used by the
	// security analysis to plant and probe secrets.
	registerApp := func(img *sdk.Image) {
		img.RegisterECall("plant_secret", func(env *sdk.Env, args []byte) ([]byte, error) {
			// Arrange the Heartbleed heap: a freed low extent (reused by
			// record staging) with the secret resident just above it.
			hole, err := env.Malloc(1024)
			if err != nil {
				return nil, err
			}
			addr, err := env.Malloc(len(args))
			if err != nil {
				return nil, err
			}
			if err := env.Write(addr, args); err != nil {
				return nil, err
			}
			if err := env.Free(hole); err != nil {
				return nil, err
			}
			return le64(uint64(addr)), nil
		})
		img.RegisterECall("read_at", func(env *sdk.Env, args []byte) ([]byte, error) {
			addr := isa.VAddr(readLE64(args[:8]))
			n := int(readLE64(args[8:16]))
			return env.Read(addr, n)
		})
	}

	if !nested {
		img := sdk.NewImage("echo-server", 0x1000_0000, echoLayout())
		registerApp(img)
		es.registerTLS(img, cfg, nil)
		e, err := r.LoadSolo(img)
		if err != nil {
			return nil, err
		}
		es.Entry, es.App = e, e
		return es, nil
	}

	libImg := sdk.NewImage("ssl-lib", 0x2000_0000, echoLayout())  // PORT: split the image in two
	appImg := sdk.NewImage("echo-app", 0x1000_0000, echoLayout()) // PORT: application image
	registerApp(appImg)
	appImg.RegisterECall("app_handle", func(env *sdk.Env, args []byte) ([]byte, error) { // PORT: n_ecall target
		return args, nil // PORT: echo handler now lives in the inner enclave
	})
	es.registerTLS(libImg, cfg, func(env *sdk.Env, req []byte) []byte {
		resp, err := env.NECall(env.E.Inners()[0], "app_handle", req) // PORT: cross into the inner enclave
		if err != nil {                                               // PORT:
			return nil // PORT:
		}
		return resp
	})
	app, lib, err := r.LoadPair(appImg, libImg) // PORT: NASSO association at load
	if err != nil {
		return nil, err
	}
	es.Entry, es.App = lib, app
	return es, nil
}

// registerTLS installs the SSL library entry points on the image hosting
// the library. nestedHandler is nil for the monolithic build (the handler
// runs in-enclave) and the n_ecall proxy for the nested build.
func (es *EchoServer) registerTLS(img *sdk.Image, cfg ssl.Config, nestedHandler func(*sdk.Env, []byte) []byte) {
	img.RegisterECall("tls_client_hello", func(env *sdk.Env, args []byte) ([]byte, error) {
		es.mem.env = env
		srv, err := ssl.NewServer(cfg, es.mem)
		if err != nil {
			return nil, err
		}
		es.srv = srv
		return srv.HandleClientHello(args)
	})
	img.RegisterECall("tls_client_finished", func(env *sdk.Env, args []byte) ([]byte, error) {
		es.mem.env = env
		return nil, es.srv.HandleClientFinished(args)
	})
	img.RegisterECall("tls_record", func(env *sdk.Env, args []byte) ([]byte, error) {
		es.mem.env = env
		handler := func(req []byte) []byte { return req } // in-enclave echo
		if nestedHandler != nil {
			handler = func(req []byte) []byte { return nestedHandler(env, req) }
		}
		return es.srv.ProcessRecord(args, handler)
	})
}

// Connect performs the TLS handshake and returns the connected client.
func (es *EchoServer) Connect(cfg ssl.Config) (*ssl.Client, error) {
	client, err := ssl.NewClient(cfg)
	if err != nil {
		return nil, err
	}
	sh, err := es.Entry.ECall("tls_client_hello", client.Hello())
	if err != nil {
		return nil, err
	}
	cf, err := client.HandleServerHello(sh)
	if err != nil {
		return nil, err
	}
	if _, err := es.Entry.ECall("tls_client_finished", cf); err != nil {
		return nil, err
	}
	return client, nil
}

// Echo sends one application chunk and verifies the echoed response.
func (es *EchoServer) Echo(client *ssl.Client, chunk []byte) error {
	rec, err := client.Send(chunk)
	if err != nil {
		return err
	}
	resp, err := es.Entry.ECall("tls_record", rec)
	if err != nil {
		return err
	}
	_, pt, err := client.Recv(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(pt, chunk) {
		return fmt.Errorf("echo mismatch: sent %d bytes, got %d", len(chunk), len(pt))
	}
	return nil
}

func le64(x uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	return b
}

func readLE64(b []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(b[i]) << (8 * i)
	}
	return x
}
