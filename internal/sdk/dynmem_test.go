package sdk_test

import (
	"bytes"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// Tests for SGX2-style dynamic enclave memory (EAUG / GrowHeap) and sealed
// storage.

func TestGrowHeap(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	l := sdk.DefaultLayout()
	l.HeapPages = 1
	l.ReservedHeapPages = 4
	img := sdk.NewImage("dyn", 0x1000_0000, l)
	var addr isa.VAddr
	img.RegisterECall("fill", func(env *sdk.Env, args []byte) ([]byte, error) {
		// The static heap is one page; a 3-page allocation needs growth.
		if _, err := env.Malloc(3 * isa.PageSize); err == nil {
			t.Error("oversized allocation succeeded before growth")
		}
		if err := env.GrowHeap(3); err != nil {
			return nil, err
		}
		a, err := env.Malloc(3 * isa.PageSize)
		if err != nil {
			return nil, err
		}
		addr = a
		return nil, env.Write(a, args)
	})
	img.RegisterECall("read", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Read(addr, int(args[0]))
	})
	e := mustLoad(t, r.host, img.Sign(mustAuthor(t), nil, nil))
	data := []byte("data-in-dynamically-augmented-pages")
	if _, err := e.ECall("fill", data); err != nil {
		t.Fatalf("fill: %v", err)
	}
	got, err := e.ECall("read", []byte{byte(len(data))})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}

	// Growth beyond the reservation fails (ELRANGE is immutable).
	if err := e.GrowHeap(2); err == nil {
		t.Fatal("growth beyond reservation accepted")
	}
	// Exactly exhausting it succeeds.
	if err := e.GrowHeap(1); err != nil {
		t.Fatalf("final page growth: %v", err)
	}

	// Augmented pages are enclave memory: the host reads 0xFF.
	c := r.m.Core(0)
	if err := r.k.Schedule(c, r.host.Proc); err != nil {
		t.Fatal(err)
	}
	leak, err := c.Read(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range leak {
		if b != 0xFF {
			t.Fatalf("host read augmented page: %v", leak)
		}
	}
}

func TestEAugRejections(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	img := sdk.NewImage("x", 0x1000_0000, sdk.DefaultLayout())
	e := mustLoad(t, r.host, img.Sign(mustAuthor(t), nil, nil))
	m := r.m
	// Uninitialized enclave: EAUG refused (EADD is the build path).
	s2, err := m.ECreate(0x9000_0000, 4*isa.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EAug(s2, 0x9000_0000, isa.PermRW); err == nil {
		t.Fatal("EAUG on uninitialized enclave accepted")
	}
	// Outside ELRANGE.
	if _, err := m.EAug(e.SECS(), 0x9999_0000, isa.PermRW); err == nil {
		t.Fatal("EAUG outside ELRANGE accepted")
	}
	// Already-backed vaddr.
	if _, err := m.EAug(e.SECS(), e.Image().HeapBase(), isa.PermRW); err == nil {
		t.Fatal("EAUG over a backed page accepted")
	}
	// Misaligned.
	if _, err := m.EAug(e.SECS(), e.Image().HeapBase()+5, isa.PermRW); err == nil {
		t.Fatal("misaligned EAUG accepted")
	}
	// Zero-growth and no-reservation guardrails at the SDK layer.
	if err := e.GrowHeap(0); err == nil {
		t.Fatal("zero growth accepted")
	}
	if err := e.GrowHeap(1); err == nil {
		t.Fatal("growth without reservation accepted")
	}
}

func TestSealUnseal(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	author := mustAuthor(t)
	imgA := sdk.NewImage("seal-a", 0x1000_0000, sdk.DefaultLayout())
	imgB := sdk.NewImage("seal-b", 0x2000_0000, sdk.DefaultLayout())

	var blobEnclave, blobSigner []byte
	secret := []byte("persist-me-across-restarts")
	imgA.RegisterECall("seal", func(env *sdk.Env, args []byte) ([]byte, error) {
		var err error
		if blobEnclave, err = env.Seal(sgx.SealToEnclave, args); err != nil {
			return nil, err
		}
		blobSigner, err = env.Seal(sgx.SealToSigner, args)
		return nil, err
	})
	imgA.RegisterECall("unseal", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Unseal(sgx.SealToEnclave, blobEnclave)
	})
	imgB.RegisterECall("steal_enclave", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Unseal(sgx.SealToEnclave, blobEnclave)
	})
	imgB.RegisterECall("unseal_signer", func(env *sdk.Env, args []byte) ([]byte, error) {
		return env.Unseal(sgx.SealToSigner, blobSigner)
	})

	a := mustLoad(t, r.host, imgA.Sign(author, nil, nil))
	b := mustLoad(t, r.host, imgB.Sign(author, nil, nil)) // same author

	if _, err := a.ECall("seal", secret); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blobEnclave, secret[:8]) {
		t.Fatal("sealed blob contains plaintext")
	}
	got, err := a.ECall("unseal", nil)
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("same-enclave unseal: %q %v", got, err)
	}
	// A different enclave cannot unseal enclave-bound blobs...
	if _, err := b.ECall("steal_enclave", nil); err == nil {
		t.Fatal("foreign enclave unsealed an MRENCLAVE-bound blob")
	}
	// ...but can unseal signer-bound blobs from the same author.
	got, err = b.ECall("unseal_signer", nil)
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("same-signer unseal: %q %v", got, err)
	}
	// Tampered blobs fail.
	blobEnclave[len(blobEnclave)-1] ^= 1
	if _, err := a.ECall("unseal", nil); err == nil {
		t.Fatal("tampered blob unsealed")
	}
}
