package sdk_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

func mustAuthor(t *testing.T) *measure.Author {
	t.Helper()
	return measure.MustNewAuthor()
}

// TestParallelECalls runs concurrent ecalls into one enclave: the SDK
// multiplexes them over the machine's cores and the enclave's TCS pool, and
// the machine's memory system stays consistent under the shared lock.
func TestParallelECalls(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	layout := sdk.DefaultLayout()
	layout.NumTCS = 4
	img := sdk.NewImage("parallel", 0x1000_0000, layout)
	img.RegisterECall("work", func(env *sdk.Env, args []byte) ([]byte, error) {
		// Each call allocates, writes, reads back and frees enclave memory.
		a, err := env.Malloc(len(args))
		if err != nil {
			return nil, err
		}
		defer func() { _ = env.Free(a) }()
		if err := env.Write(a, args); err != nil {
			return nil, err
		}
		got, err := env.Read(a, len(args))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, args) {
			return nil, fmt.Errorf("readback mismatch")
		}
		return got, nil
	})
	e := mustLoad(t, r.host, img.Sign(mustAuthor(t), nil, nil))

	const workers = 8
	const callsEach = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, 64+w)
			for i := 0; i < callsEach; i++ {
				out, err := e.ECall("work", payload)
				if err != nil {
					errs <- fmt.Errorf("worker %d call %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(out, payload) {
					errs <- fmt.Errorf("worker %d call %d: wrong result", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelNestedCalls drives concurrent outer->inner chains: two outer
// ecalls each NECall into the shared inner enclave on separate TCSes.
func TestParallelNestedCalls(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	il := sdk.DefaultLayout()
	il.NumTCS = 4
	ol := sdk.DefaultLayout()
	ol.NumTCS = 4
	innerImg := sdk.NewImage("inner", 0x1000_0000, il)
	outerImg := sdk.NewImage("outer", 0x2000_0000, ol)
	innerImg.RegisterECall("bump", func(env *sdk.Env, args []byte) ([]byte, error) {
		return append(args, 1), nil
	})
	outerImg.RegisterECall("chain", func(env *sdk.Env, args []byte) ([]byte, error) {
		out := args
		for i := 0; i < 10; i++ {
			var err error
			out, err = env.NECall(env.E.Inners()[0], "bump", out)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	si, so := signPair(t, innerImg, outerImg)
	outer := mustLoad(t, r.host, so)
	inner := mustLoad(t, r.host, si)
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				out, err := outer.ECall("chain", []byte{byte(w)})
				if err != nil {
					errs <- err
					return
				}
				if len(out) != 11 {
					errs <- fmt.Errorf("chain produced %d bytes", len(out))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if bad := r.m.AuditInvariants(); len(bad) != 0 {
		t.Errorf("stale translations after concurrent run: %v", bad)
	}
}

// TestTCSExhaustionBlocks checks that calls queue rather than fail when all
// TCSes are busy.
func TestTCSExhaustionBlocks(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	layout := sdk.DefaultLayout()
	layout.NumTCS = 1
	img := sdk.NewImage("single-tcs", 0x1000_0000, layout)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	img.RegisterECall("hold", func(env *sdk.Env, args []byte) ([]byte, error) {
		entered <- struct{}{}
		<-gate
		return nil, nil
	})
	img.RegisterECall("quick", func(env *sdk.Env, args []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	e := mustLoad(t, r.host, img.Sign(mustAuthor(t), nil, nil))

	done := make(chan error, 2)
	go func() { _, err := e.ECall("hold", nil); done <- err }()
	<-entered
	// The second call must wait for the TCS, then succeed.
	go func() { _, err := e.ECall("quick", nil); done <- err }()
	select {
	case err := <-done:
		t.Fatalf("second call completed while TCS held: %v", err)
	default:
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
