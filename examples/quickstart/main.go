// Quickstart: the smallest complete nested-enclave program.
//
// It boots a simulated machine, loads an outer "library" enclave and an
// inner "app" enclave, associates them with NASSO, and demonstrates the
// model's core semantics:
//
//   - the host calls into the outer enclave (ecall), which calls into the
//     inner enclave (n_ecall) without ever leaving protected mode;
//   - the inner enclave reads the outer enclave's memory directly, and
//     calls an outer library function (n_ocall);
//   - the outer enclave CANNOT read the inner enclave's memory;
//   - the untrusted host sees only abort-page 0xFF bytes for both;
//   - the inner enclave proves its position in the hierarchy to a remote
//     challenger with a NEREPORT-based quote.
//
// Run:  go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	ne "nestedenclave"
	"nestedenclave/internal/isa"
)

func main() {
	sys := ne.NewSystem()
	author := ne.NewAuthor()

	outerImg := ne.NewImage("lib", 0x2000_0000, ne.DefaultLayout())
	innerImg := ne.NewImage("app", 0x1000_0000, ne.DefaultLayout())

	var outerData, innerSecret isa.VAddr

	// The outer enclave: a shared "library" exposing one function to its
	// inner enclaves, plus an entry point that seeds some library state.
	outerImg.RegisterNOCall("greet", func(env *ne.Env, args []byte) ([]byte, error) {
		return append([]byte("lib says hi to "), args...), nil
	})
	outerImg.RegisterECall("seed", func(env *ne.Env, args []byte) ([]byte, error) {
		addr, err := env.Malloc(len(args))
		if err != nil {
			return nil, err
		}
		outerData = addr
		return nil, env.Write(addr, args)
	})
	outerImg.RegisterECall("spy_on_inner", func(env *ne.Env, args []byte) ([]byte, error) {
		return env.Read(innerSecret, 32)
	})
	outerImg.RegisterECall("call_inner", func(env *ne.Env, args []byte) ([]byte, error) {
		return env.NECall(env.E.Inners()[0], "work", args)
	})

	// The inner enclave: the security-sensitive application.
	innerImg.RegisterECall("work", func(env *ne.Env, args []byte) ([]byte, error) {
		// Keep a secret in inner-enclave memory.
		addr, err := env.Malloc(32)
		if err != nil {
			return nil, err
		}
		innerSecret = addr
		if err := env.Write(addr, []byte("inner-top-secret-0123456789abcd!")); err != nil {
			return nil, err
		}
		// Asymmetric access: read the outer enclave's memory directly.
		shared, err := env.Read(outerData, 24)
		if err != nil {
			return nil, err
		}
		// The print is didactic: it shows the asymmetric read succeeded. The
		// data is the outer enclave's deliberately shared state, not a
		// secret; real enclave code would seal anything leaving the TEE.
		//nescheck:allow boundary didactic demo prints deliberately shared (non-secret) outer state
		fmt.Printf("inner read outer memory:   %q\n", bytes.TrimRight(shared, "\x00"))
		// Call the outer library with plain procedure-call syntax.
		return env.NOCall("greet", args)
	})

	// Sign the images with mutual expectations (the nested signed-file
	// extension) and load them.
	signedOuter := outerImg.Sign(author, nil, []ne.Digest{innerImg.Measure()})
	signedInner := innerImg.Sign(author, []ne.Digest{outerImg.Measure()}, nil)
	outer, err := sys.Load(signedOuter)
	if err != nil {
		log.Fatal(err)
	}
	inner, err := sys.Load(signedInner)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Associate(inner, outer); err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded outer+inner and associated them (NASSO)")

	if _, err := outer.ECall("seed", []byte("outer-shared-state")); err != nil {
		log.Fatal(err)
	}
	out, err := outer.ECall("call_inner", []byte("alice"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ecall -> n_ecall -> n_ocall: %q\n", out)

	// The outer enclave cannot see inner memory.
	spied, err := outer.ECall("spy_on_inner", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outer spying on inner:     % x (abort-page filler)\n", spied[:8])

	// Neither can the host.
	c := sys.Machine.Core(0)
	if err := sys.Kernel.Schedule(c, sys.Host.Proc); err != nil {
		log.Fatal(err)
	}
	hostView, err := c.Read(innerSecret, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host reading inner memory: % x (abort-page filler)\n", hostView)

	// Remote attestation: the inner enclave proves its identity AND its
	// outer association to a challenger.
	qs, err := sys.NewQuotingService()
	if err != nil {
		log.Fatal(err)
	}
	var quote *ne.Quote
	innerImg.RegisterECall("attest", func(env *ne.Env, args []byte) ([]byte, error) {
		var data [64]byte
		copy(data[:], args)
		rep, err := sys.Machine.NEREPORT(env.C, qs.Measurement(), data)
		if err != nil {
			return nil, err
		}
		quote, err = qs.MakeQuote(rep)
		return nil, err
	})
	nonce := []byte("challenger-nonce-42")
	if _, err := inner.ECall("attest", nonce); err != nil {
		log.Fatal(err)
	}
	err = ne.VerifyQuote(qs.PlatformKey(), quote, ne.Expectation{
		Enclave: inner.SECS().MRENCLAVE,
		Outers:  []ne.Digest{outer.SECS().MRENCLAVE},
		Nonce:   nonce,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("remote quote verified: inner enclave runs inside the expected outer enclave")
}
