package attest_test

import (
	"strings"
	"testing"

	"nestedenclave/internal/attest"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

type rig struct {
	m     *sgx.Machine
	host  *sdk.Host
	qs    *attest.QuotingService
	inner *sdk.Enclave
	outer *sdk.Enclave
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := sgx.MustNew(sgx.SmallConfig())
	k := kos.New(m)
	host := sdk.NewHost(k)
	qs, err := attest.NewQuotingService(m)
	if err != nil {
		t.Fatal(err)
	}

	innerImg := sdk.NewImage("app", 0x1000_0000, sdk.DefaultLayout())
	outerImg := sdk.NewImage("lib", 0x2000_0000, sdk.DefaultLayout())
	innerImg.RegisterECall("noop", func(env *sdk.Env, args []byte) ([]byte, error) { return nil, nil })
	si := innerImg.Sign(measure.MustNewAuthor(), []measure.Digest{outerImg.Measure()}, nil)
	so := outerImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	outer, err := host.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := host.Load(si)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Associate(inner, outer); err != nil {
		t.Fatal(err)
	}
	return &rig{m: m, host: host, qs: qs, inner: inner, outer: outer}
}

// quoteFromInner runs the full remote-attestation flow from inside the
// inner enclave with the given challenger nonce.
func quoteFromInner(t *testing.T, r *rig, nonce []byte) *attest.Quote {
	t.Helper()
	var quote *attest.Quote
	r.inner.Image().RegisterECall("attest", func(env *sdk.Env, args []byte) ([]byte, error) {
		var data [64]byte
		copy(data[:], args)
		rep, err := r.m.NEREPORT(env.C, r.qs.Measurement(), data)
		if err != nil {
			return nil, err
		}
		quote, err = r.qs.MakeQuote(rep)
		return nil, err
	})
	if _, err := r.inner.ECall("attest", nonce); err != nil {
		t.Fatalf("attest ecall: %v", err)
	}
	return quote
}

func TestRemoteAttestationRoundTrip(t *testing.T) {
	r := newRig(t)
	nonce := []byte("challenger-nonce")
	q := quoteFromInner(t, r, nonce)
	err := attest.Verify(r.qs.PlatformKey(), q, attest.Expectation{
		Enclave: r.inner.SECS().MRENCLAVE,
		Outers:  []measure.Digest{r.outer.SECS().MRENCLAVE},
		Nonce:   nonce,
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Signer policy too.
	err = attest.Verify(r.qs.PlatformKey(), q, attest.Expectation{
		Signer: r.inner.SECS().MRSIGNER,
	})
	if err != nil {
		t.Fatalf("signer policy: %v", err)
	}
}

func TestVerifyRejectsWrongExpectations(t *testing.T) {
	r := newRig(t)
	nonce := []byte("n1")
	q := quoteFromInner(t, r, nonce)

	var wrong measure.Digest
	wrong[0] = 0xAB
	cases := []struct {
		name string
		want attest.Expectation
		frag string
	}{
		{"enclave", attest.Expectation{Enclave: wrong}, "MRENCLAVE"},
		{"signer", attest.Expectation{Signer: wrong}, "MRSIGNER"},
		{"outers", attest.Expectation{Outers: []measure.Digest{wrong}}, "outer"},
		{"outer count", attest.Expectation{Outers: []measure.Digest{}}, "outer"},
		{"nonce", attest.Expectation{Nonce: []byte("other")}, "nonce"},
		{"inner", attest.Expectation{RequireInners: []measure.Digest{wrong}}, "inner"},
	}
	for _, c := range cases {
		err := attest.Verify(r.qs.PlatformKey(), q, c.want)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestQuoteTamperDetected(t *testing.T) {
	r := newRig(t)
	q := quoteFromInner(t, r, []byte("n"))
	q.Report.OuterMeasurements[0][0] ^= 1
	if err := attest.Verify(r.qs.PlatformKey(), q, attest.Expectation{}); err == nil {
		t.Fatal("tampered quote verified")
	}
}

func TestQuotingServiceRejectsForgedReport(t *testing.T) {
	r := newRig(t)
	// A report fabricated by the (untrusted) host, without NEREPORT.
	forged := &sgx.NestedReport{
		MRENCLAVE:       r.inner.SECS().MRENCLAVE,
		TargetMRENCLAVE: r.qs.Measurement(),
	}
	if _, err := r.qs.MakeQuote(forged); err == nil {
		t.Fatal("forged report quoted")
	}
	// A report targeted elsewhere.
	q := quoteFromInner(t, r, []byte("n"))
	rep := q.Report
	rep.TargetMRENCLAVE = measure.Digest{}
	if _, err := r.qs.MakeQuote(&rep); err == nil {
		t.Fatal("mis-targeted report quoted")
	}
}

func TestOuterQuoteListsInners(t *testing.T) {
	r := newRig(t)
	var quote *attest.Quote
	r.outer.Image().RegisterECall("attest", func(env *sdk.Env, args []byte) ([]byte, error) {
		rep, err := r.m.NEREPORT(env.C, r.qs.Measurement(), [64]byte{})
		if err != nil {
			return nil, err
		}
		quote, err = r.qs.MakeQuote(rep)
		return nil, err
	})
	if _, err := r.outer.ECall("attest", nil); err != nil {
		t.Fatal(err)
	}
	err := attest.Verify(r.qs.PlatformKey(), quote, attest.Expectation{
		Enclave:       r.outer.SECS().MRENCLAVE,
		RequireInners: []measure.Digest{r.inner.SECS().MRENCLAVE},
	})
	if err != nil {
		t.Fatalf("outer quote verification: %v", err)
	}
}
