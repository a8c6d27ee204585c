// Package attest implements remote attestation over the nested-report
// primitive (paper §IV-E "Remote attestation"): a quoting service — the
// stand-in for Intel's Quoting Enclave — converts a locally-verifiable
// NEREPORT into a platform-signed Quote a remote challenger can check, and
// the challenger-side verification confirms not just individual enclave
// measurements but the inner-outer association shape.
package attest

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"nestedenclave/internal/measure"
	"nestedenclave/internal/sgx"
)

// QuotingService models the platform's quoting enclave: it holds the
// attestation signing key (provisioned at "manufacturing") and a
// well-known measurement that enclaves target their reports at.
type QuotingService struct {
	m    *sgx.Machine
	meas measure.Digest
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewQuotingService provisions a quoting service on the machine.
func NewQuotingService(m *sgx.Machine) (*QuotingService, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	qs := &QuotingService{m: m, pub: pub, priv: priv}
	qs.meas = sha256.Sum256([]byte("quoting-enclave"))
	return qs, nil
}

// Measurement is the digest enclaves must target with NEREPORT so the
// quoting service can verify the report.
func (qs *QuotingService) Measurement() measure.Digest { return qs.meas }

// PlatformKey returns the public attestation key a challenger pins.
func (qs *QuotingService) PlatformKey() ed25519.PublicKey { return qs.pub }

// Quote is a remotely-verifiable attestation statement.
type Quote struct {
	Report sgx.NestedReport
	Sig    []byte
}

func quoteBody(r *sgx.NestedReport) []byte {
	h := sha256.New()
	h.Write([]byte("QUOTE"))
	h.Write(r.MRENCLAVE[:])
	h.Write(r.MRSIGNER[:])
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], r.Attributes)
	h.Write(a[:])
	h.Write(r.ReportData[:])
	binary.LittleEndian.PutUint64(a[:], uint64(len(r.OuterMeasurements)))
	h.Write(a[:])
	for _, d := range r.OuterMeasurements {
		h.Write(d[:])
	}
	binary.LittleEndian.PutUint64(a[:], uint64(len(r.InnerMeasurements)))
	h.Write(a[:])
	for _, d := range r.InnerMeasurements {
		h.Write(d[:])
	}
	return h.Sum(nil)
}

// MakeQuote verifies the nested report's MAC (the machine checks it under
// the report key of the quoting service's own measurement, the key the real
// QE derives with EGETKEY) and signs a quote over it.
func (qs *QuotingService) MakeQuote(r *sgx.NestedReport) (*Quote, error) {
	if r.TargetMRENCLAVE != qs.meas {
		return nil, fmt.Errorf("attest: report not targeted at the quoting service")
	}
	if !qs.m.NestedReportValid(qs.meas, r) {
		return nil, fmt.Errorf("attest: report MAC invalid — not produced by NEREPORT on this platform")
	}
	return &Quote{Report: *r, Sig: ed25519.Sign(qs.priv, quoteBody(r))}, nil
}

// Expectation is what a remote challenger requires of a quote.
type Expectation struct {
	// Enclave, when non-zero, pins the reporting enclave's MRENCLAVE.
	Enclave measure.Digest
	// Signer, when non-zero, pins MRSIGNER instead (same-author policy).
	Signer measure.Digest
	// Outers, when non-nil, must equal the reported outer measurements.
	Outers []measure.Digest
	// RequireInners, when non-nil, must each appear among the reported
	// inner measurements.
	RequireInners []measure.Digest
	// Nonce must match the first bytes of ReportData (freshness).
	Nonce []byte
}

// Verify checks a quote against the pinned platform key and the expectation.
func Verify(platformKey ed25519.PublicKey, q *Quote, want Expectation) error {
	if !ed25519.Verify(platformKey, quoteBody(&q.Report), q.Sig) {
		return fmt.Errorf("attest: quote signature invalid")
	}
	r := &q.Report
	if !want.Enclave.IsZero() && r.MRENCLAVE != want.Enclave {
		return fmt.Errorf("attest: MRENCLAVE %v, want %v", r.MRENCLAVE, want.Enclave)
	}
	if !want.Signer.IsZero() && r.MRSIGNER != want.Signer {
		return fmt.Errorf("attest: MRSIGNER %v, want %v", r.MRSIGNER, want.Signer)
	}
	if want.Outers != nil {
		if len(r.OuterMeasurements) != len(want.Outers) {
			return fmt.Errorf("attest: %d outer enclaves reported, want %d",
				len(r.OuterMeasurements), len(want.Outers))
		}
		for i, d := range want.Outers {
			if r.OuterMeasurements[i] != d {
				return fmt.Errorf("attest: outer %d measures %v, want %v", i, r.OuterMeasurements[i], d)
			}
		}
	}
	for _, d := range want.RequireInners {
		found := false
		for _, got := range r.InnerMeasurements {
			if got == d {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("attest: required inner enclave %v not associated", d)
		}
	}
	if len(want.Nonce) > 0 {
		if len(want.Nonce) > len(r.ReportData) {
			return fmt.Errorf("attest: nonce longer than report data")
		}
		for i, b := range want.Nonce {
			if r.ReportData[i] != b {
				return fmt.Errorf("attest: nonce mismatch (stale quote?)")
			}
		}
	}
	return nil
}
