package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
)

// This file implements local attestation: EREPORT, NEREPORT and EGETKEY. A
// REPORT is a claim about the calling enclave's identity, MACed with a key
// derivable only by the target enclave on the same platform — so the target
// can check it without any trusted software in between. Report MACs are
// computed only by reportMAC, inside the instructions; no exported method
// returns one.

// Report is the EREPORT output structure.
type Report struct {
	// Identity of the reporting enclave.
	MRENCLAVE  measure.Digest
	MRSIGNER   measure.Digest
	Attributes uint64
	// ReportData is 64 bytes of caller-chosen data bound into the MAC
	// (typically a channel-binding nonce or key-exchange value).
	ReportData [64]byte
	// TargetMRENCLAVE names the enclave able to verify this report.
	TargetMRENCLAVE measure.Digest
	// MAC authenticates all of the above under the target's report key.
	MAC [32]byte
}

func (r *Report) macInput() []byte {
	h := sha256.New()
	h.Write([]byte("REPORT"))
	h.Write(r.MRENCLAVE[:])
	h.Write(r.MRSIGNER[:])
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], r.Attributes)
	h.Write(a[:])
	h.Write(r.ReportData[:])
	h.Write(r.TargetMRENCLAVE[:])
	return h.Sum(nil)
}

// reportKey derives the key a target enclave uses to verify reports
// addressed to it. Only the report instructions (microcode) and EGETKEY
// invoked *by that enclave* can produce it.
func (m *Machine) reportKey(target measure.Digest) [16]byte {
	return measure.DeriveKey(m.platformSecret, measure.KeyReport, target, measure.Digest{}, nil)
}

// reportMAC authenticates a report body under the report key of the target
// enclave: EREPORT and NEREPORT sign with it, and the verifiers recompute it.
func (m *Machine) reportMAC(target measure.Digest, body []byte) [32]byte {
	key := m.reportKey(target)
	mac := hmac.New(sha256.New, key[:])
	mac.Write(body)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// reportMACValid reports whether mac is body's MAC under target's report
// key, comparing in constant time.
func (m *Machine) reportMACValid(target measure.Digest, body []byte, mac [32]byte) bool {
	want := m.reportMAC(target, body)
	return hmac.Equal(want[:], mac[:])
}

// EReport creates a report about the enclave currently executing on core c,
// targeted at the enclave with measurement target. Must run in enclave mode.
func (m *Machine) EReport(c *Core, target measure.Digest, reportData [64]byte) (*Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return nil, isa.GP("EREPORT: not in enclave mode")
	}
	s := c.cur
	r := &Report{
		MRENCLAVE:       s.MRENCLAVE,
		MRSIGNER:        s.MRSIGNER,
		Attributes:      s.Attributes,
		ReportData:      reportData,
		TargetMRENCLAVE: target,
	}
	r.MAC = m.reportMAC(target, r.macInput())
	return r, nil
}

// VerifyReport checks a report addressed to the enclave running on core c.
// Must run in enclave mode of the target enclave (only it can derive the
// report key).
func (m *Machine) VerifyReport(c *Core, r *Report) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return isa.GP("report verify: not in enclave mode")
	}
	if r.TargetMRENCLAVE != c.cur.MRENCLAVE {
		return isa.GP("report verify: report targets %v, not this enclave (%v)",
			r.TargetMRENCLAVE, c.cur.MRENCLAVE)
	}
	if !m.reportMACValid(c.cur.MRENCLAVE, r.macInput(), r.MAC) {
		return isa.GP("report verify: MAC mismatch")
	}
	return nil
}

// NestedReport is NEREPORT's output: an EREPORT-style claim extended with
// the inner-outer relations of the reporting enclave (paper §IV-B, §IV-E
// "Remote attestation"). An attestation to an outer enclave reports the
// measurements of all inner enclaves sharing it, and an inner enclave's
// report names its outer enclave(s) — so a challenger can verify not just
// each enclave but the *shape* of the nesting.
type NestedReport struct {
	// Identity of the reporting enclave (as in EREPORT).
	MRENCLAVE  measure.Digest
	MRSIGNER   measure.Digest
	Attributes uint64
	ReportData [64]byte

	// OuterMeasurements are the MRENCLAVEs of the enclaves this enclave is
	// bound to as an inner, in association order.
	OuterMeasurements []measure.Digest
	// InnerMeasurements are the MRENCLAVEs of all inner enclaves bound to
	// this enclave.
	InnerMeasurements []measure.Digest

	// TargetMRENCLAVE names the enclave able to verify this report.
	TargetMRENCLAVE measure.Digest
	MAC             [32]byte
}

func (r *NestedReport) macInput() []byte {
	h := sha256.New()
	h.Write([]byte("NEREPORT"))
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
	h.Write(r.TargetMRENCLAVE[:])
	return h.Sum(nil)
}

// NEREPORT produces a report about the enclave currently executing on core
// c, including its association relationships, targeted at (verifiable by)
// the enclave with measurement target.
func (m *Machine) NEREPORT(c *Core, target measure.Digest, reportData [64]byte) (*NestedReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return nil, isa.GP("NEREPORT: not in enclave mode")
	}
	s := c.cur
	r := &NestedReport{
		MRENCLAVE:       s.MRENCLAVE,
		MRSIGNER:        s.MRSIGNER,
		Attributes:      s.Attributes,
		ReportData:      reportData,
		TargetMRENCLAVE: target,
	}
	for _, oe := range s.Nested.OuterEIDs {
		if o, ok := m.secsByEID[oe]; ok {
			r.OuterMeasurements = append(r.OuterMeasurements, o.MRENCLAVE)
		}
	}
	for _, ie := range s.Nested.InnerEIDs {
		if in, ok := m.secsByEID[ie]; ok {
			r.InnerMeasurements = append(r.InnerMeasurements, in.MRENCLAVE)
		}
	}
	r.MAC = m.reportMAC(target, r.macInput())
	return r, nil
}

// VerifyNestedReport checks a nested report addressed to the enclave running
// on core c. Only that enclave can derive the report key, so a valid MAC
// proves the report came from NEREPORT on the same platform.
func (m *Machine) VerifyNestedReport(c *Core, r *NestedReport) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return isa.GP("nested report verify: not in enclave mode")
	}
	if r.TargetMRENCLAVE != c.cur.MRENCLAVE {
		return isa.GP("nested report verify: report targets a different enclave")
	}
	if !m.reportMACValid(c.cur.MRENCLAVE, r.macInput(), r.MAC) {
		return isa.GP("nested report verify: MAC mismatch")
	}
	return nil
}

// NestedReportValid reports whether r is a genuine NEREPORT output
// addressed to the enclave measuring target. It is the platform quoting
// service's check of reports targeted at its own measurement (the real
// quoting enclave derives its report key with EGETKEY); it answers yes or
// no and hands out no MAC, so it cannot mint a report.
func (m *Machine) NestedReportValid(target measure.Digest, r *NestedReport) bool {
	return r.TargetMRENCLAVE == target && m.reportMACValid(target, r.macInput(), r.MAC)
}

// SealPolicy selects the identity a sealing key binds to.
type SealPolicy uint8

const (
	// SealToEnclave binds to MRENCLAVE: only the identical enclave unseals.
	SealToEnclave SealPolicy = iota
	// SealToSigner binds to MRSIGNER: any enclave from the same author.
	SealToSigner
)

// EGetKey derives a key for the enclave running on core c. Must run in
// enclave mode; the derivation mixes the platform secret with the enclave's
// identity, so no other enclave (or the OS) can derive the same key.
func (m *Machine) EGetKey(c *Core, name measure.KeyName, policy SealPolicy, extra []byte) ([16]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !c.inEnclave {
		return [16]byte{}, isa.GP("EGETKEY: not in enclave mode")
	}
	s := c.cur
	switch policy {
	case SealToEnclave:
		return measure.DeriveKey(m.platformSecret, name, s.MRENCLAVE, measure.Digest{}, extra), nil
	case SealToSigner:
		return measure.DeriveKey(m.platformSecret, name, measure.Digest{}, s.MRSIGNER, extra), nil
	}
	return [16]byte{}, isa.GP("EGETKEY: unknown policy %d", policy)
}
