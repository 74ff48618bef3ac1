// Package attest implements ShEF's remote attestation protocol (paper
// Figure 3 and §4): the three-party exchange between the Data Owner, the
// IP Vendor, and the Security Kernel that proves device and bitstream
// authenticity, establishes a session key, and provisions the Bitstream
// Encryption Key and public Shield Encryption Key.
//
// All messages travel over ordinary net.Conn-style streams as
// length-prefixed JSON. The channel between the Security Kernel and the IP
// Vendor crosses the untrusted host CPU; the protocol's signatures and the
// DH-derived session key are what make that safe (paper §3: "while the
// Security Kernel relies on the host CPU to communicate with the IP
// Vendor, this channel is authenticated and encrypted").
package attest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// maxMsgBytes bounds a single protocol message (defence against a
// malicious peer streaming garbage). readChunk is the most readMsg holds
// for a body before that many bytes of it have arrived.
const (
	maxMsgBytes = 1 << 20
	readChunk   = 64 << 10
)

// writeMsg sends v as length-prefixed JSON.
func writeMsg(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("attest: encoding message: %w", err)
	}
	if len(body) > maxMsgBytes {
		return fmt.Errorf("attest: message of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readMsg receives a length-prefixed JSON message into v. The body
// buffer starts at readChunk and doubles only once it is full, so memory
// tracks the bytes the peer actually sent: a header declaring 1 MiB and
// then stalling pins readChunk, not 1 MiB.
func readMsg(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxMsgBytes {
		return fmt.Errorf("attest: message of %d bytes exceeds limit", n)
	}
	body := make([]byte, 0, min(n, readChunk))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		got, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+got]
		if err == io.EOF && len(body) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("attest: decoding message: %w", err)
	}
	return nil
}

// challenge is IP Vendor → Security Kernel (Figure 3 step 2): the nonce
// and the ephemeral Verification public key.
type challenge struct {
	Nonce    []byte `json:"nonce"`
	VerifPub []byte `json:"verif_pub"`
}

// reportMsg is Security Kernel → IP Vendor (step 4): the attestation
// report α, its signature σ_α, and the session-key certificate
// σ_SessionKey.
type reportMsg struct {
	Report      Report `json:"report"`
	SigE        []byte `json:"sig_e"`
	SigS        []byte `json:"sig_s"`
	SessionSigE []byte `json:"session_sig_e"`
	SessionSigS []byte `json:"session_sig_s"`
}

// Report is the attestation report α of Figure 3: the nonce, the encrypted
// bitstream hash, the attestation public key, the Security Kernel hash,
// and σ_SecKrnl.
type Report struct {
	Nonce         []byte `json:"nonce"`
	BitstreamHash []byte `json:"bitstream_hash"`
	AttestPub     []byte `json:"attest_pub"`
	KernelHash    []byte `json:"kernel_hash"`
	KernelCert    []byte `json:"kernel_cert"`
	DeviceSerial  string `json:"device_serial"`
}

// canonical returns the deterministic byte encoding of the report that
// gets signed. JSON with sorted keys via Marshal of a fixed struct is
// stable for our fixed field set.
func (r Report) canonical() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic("attest: report encoding cannot fail: " + err.Error())
	}
	return append([]byte("shef/report:"), b...)
}

// keyDelivery is IP Vendor → Security Kernel (step 6): the Bitstream
// Encryption Key sealed with aead.Seal under the session key.
type keyDelivery struct {
	Sealed []byte `json:"sealed"`
}

// vendorError carries a protocol rejection to the peer before closing.
type vendorError struct {
	Error string `json:"error,omitempty"`
	OK    bool   `json:"ok"`
}
