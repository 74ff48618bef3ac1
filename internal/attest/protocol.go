package attest

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"shef/internal/bitstream"
	"shef/internal/boot"
	"shef/internal/crypto/aead"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/rsax"
	"shef/internal/crypto/schnorr"
	"shef/internal/profiling"
)

// CA is the Manufacturer's certificate authority: it maps device serial
// numbers to registered device public keys (paper §3: "the Manufacturer
// must also register and publish the public device key via a trusted
// certificate authority").
//
// A CA is safe for concurrent use: shefd serves each Data Owner connection
// on its own goroutine, and registrations race with attestation lookups.
type CA struct {
	mu      sync.RWMutex
	devices map[string]*rsax.PublicKey
}

// NewCA builds an empty registry.
func NewCA() *CA { return &CA{devices: make(map[string]*rsax.PublicKey)} }

// Register records a device public key at manufacturing time. The write
// is wrapped in the profiling taxonomy (attest-op=ca-register): the CA is
// the one piece of shared mutable state every session touches, so if its
// lock ever serialises the serving tier, the harness's off-CPU table
// names it directly.
func (c *CA) Register(serial string, pub *rsax.PublicKey) {
	if profiling.Enabled() {
		profiling.Region(context.Background(), "attest.CA.Register", func() {
			profiling.Do(context.Background(), func() { c.register(serial, pub) }, "attest-op", "ca-register")
		})
		return
	}
	c.register(serial, pub)
}

func (c *CA) register(serial string, pub *rsax.PublicKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.devices[serial] = pub
}

// Lookup resolves a serial to its registered key (labelled
// attest-op=ca-lookup under a harness, like Register).
func (c *CA) Lookup(serial string) (*rsax.PublicKey, error) {
	if profiling.Enabled() {
		var pub *rsax.PublicKey
		var err error
		profiling.Do(context.Background(), func() {
			profiling.Region(context.Background(), "attest.CA.Lookup", func() { pub, err = c.lookup(serial) })
		}, "attest-op", "ca-lookup")
		return pub, err
	}
	return c.lookup(serial)
}

func (c *CA) lookup(serial string) (*rsax.PublicKey, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pub, ok := c.devices[serial]
	if !ok {
		return nil, fmt.Errorf("attest: device %q not registered with the CA", serial)
	}
	return pub, nil
}

// Vendor is the IP Vendor's attestation server state: trust anchors and
// the bitstreams it distributes.
type Vendor struct {
	// CA verifies device certificates.
	CA *CA
	// KernelAllowlist is the public list of trusted Security Kernel
	// hashes.
	KernelAllowlist [][sha256.Size]byte
	// Bitstreams maps product names to their distribution records.
	Bitstreams map[string]*Product
}

// Product is one accelerator offering: the encrypted bitstream as
// distributed, the Bitstream Encryption Key (vendor-secret), and the
// public Shield Encryption Key handed to Data Owners.
type Product struct {
	Encrypted    *bitstream.Encrypted
	BitstreamKey []byte
	ShieldPub    *schnorr.PublicKey
}

// sessionBinding is the transcript bound by σ_SessionKey.
func sessionBinding(sessionKey, nonce []byte) []byte {
	msg := append([]byte("shef/session-binding:"), nonce...)
	return append(msg, sessionKey...)
}

// Result is what the IP Vendor learns from a successful attestation.
type Result struct {
	Report     Report
	SessionKey []byte
}

// RunVendor executes the IP Vendor's side of Figure 3 over conn (which
// reaches the Security Kernel through the untrusted host). On success the
// Bitstream Encryption Key for product has been delivered to the kernel.
func (v *Vendor) RunVendor(conn io.ReadWriter, product string) (*Result, error) {
	p, ok := v.Bitstreams[product]
	if !ok {
		return nil, fmt.Errorf("attest: unknown product %q", product)
	}
	// Step 2: nonce + ephemeral Verification Key.
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	group := p.ShieldPub.Group
	verifKey, err := schnorr.GenerateKey(group, nil)
	if err != nil {
		return nil, err
	}
	if err := writeMsg(conn, challenge{Nonce: nonce, VerifPub: verifKey.PublicKey.Bytes()}); err != nil {
		return nil, err
	}
	// Step 4: receive α, σ_α, σ_SessionKey.
	var rm reportMsg
	if err := readMsg(conn, &rm); err != nil {
		return nil, err
	}
	rep := rm.Report
	fail := func(format string, args ...any) (*Result, error) {
		err := fmt.Errorf(format, args...)
		_ = writeMsg(conn, vendorError{OK: false, Error: err.Error()})
		return nil, err
	}
	// Step 5a: σ_SecKrnl proves a legitimate FPGA generated the report.
	devicePub, err := v.CA.Lookup(rep.DeviceSerial)
	if err != nil {
		return fail("attest: %v", err)
	}
	attestPub, err := schnorr.PublicKeyFromBytes(group, rep.AttestPub)
	if err != nil {
		return fail("attest: bad attestation key in report: %v", err)
	}
	var kh [sha256.Size]byte
	copy(kh[:], rep.KernelHash)
	if !boot.VerifyKernelCert(devicePub, kh, attestPub, rep.KernelCert) {
		return fail("attest: kernel certificate invalid: report not from a legitimate device")
	}
	// Step 5b: the Security Kernel hash must be on the public allowlist.
	if !v.kernelAllowed(kh) {
		return fail("attest: security kernel hash %x not in allowlist", kh[:8])
	}
	// Step 5c: σ_α under the attestation key.
	sig := schnorr.Signature{E: bigFromBytes(rm.SigE), S: bigFromBytes(rm.SigS)}
	if !schnorr.Verify(attestPub, rep.canonical(), sig) {
		return fail("attest: report signature invalid")
	}
	// Step 5d: nonce freshness.
	if !bytes.Equal(rep.Nonce, nonce) {
		return fail("attest: nonce mismatch (replayed report)")
	}
	// Step 5e: the loaded bitstream is the one we distribute.
	wantHash := p.Encrypted.Hash()
	if !bytes.Equal(rep.BitstreamHash, wantHash[:]) {
		return fail("attest: bitstream hash mismatch: kernel holds a different image")
	}
	// Step 5f: derive the same session key and check σ_SessionKey.
	shared, err := verifKey.SharedSecret(attestPub)
	if err != nil {
		return fail("attest: %v", err)
	}
	sessionKey := kdf.SessionKey(shared.Bytes(), nonce)
	sessionSig := schnorr.Signature{E: bigFromBytes(rm.SessionSigE), S: bigFromBytes(rm.SessionSigS)}
	if !schnorr.Verify(attestPub, sessionBinding(sessionKey, nonce), sessionSig) {
		return fail("attest: session key certificate invalid (man-in-the-middle?)")
	}
	// Step 6: deliver the Bitstream Encryption Key under the session key.
	sealed, err := aead.Seal(sessionKey, p.BitstreamKey)
	if err != nil {
		return nil, err
	}
	if err := writeMsg(conn, vendorError{OK: true}); err != nil {
		return nil, err
	}
	if err := writeMsg(conn, keyDelivery{Sealed: sealed}); err != nil {
		return nil, err
	}
	return &Result{Report: rep, SessionKey: sessionKey}, nil
}

func (v *Vendor) kernelAllowed(h [sha256.Size]byte) bool {
	for _, k := range v.KernelAllowlist {
		if k == h {
			return true
		}
	}
	return false
}

// ServeKernel executes the Security Kernel's side of Figure 3 over conn:
// it answers one challenge for the given resident encrypted bitstream and
// returns the Bitstream Encryption Key received in step 6.
func ServeKernel(conn io.ReadWriter, k *boot.SecurityKernel, enc *bitstream.Encrypted) ([]byte, error) {
	var ch challenge
	if err := readMsg(conn, &ch); err != nil {
		return nil, err
	}
	return answerChallenge(conn, k, enc, ch)
}

// answerChallenge is ServeKernel after the challenge has been read.
func answerChallenge(conn io.ReadWriter, k *boot.SecurityKernel, enc *bitstream.Encrypted, ch challenge) ([]byte, error) {
	if len(ch.Nonce) < 16 {
		return nil, errors.New("attest: vendor nonce too short")
	}
	group := k.Group()
	verifPub, err := schnorr.PublicKeyFromBytes(group, ch.VerifPub)
	if err != nil {
		return nil, fmt.Errorf("attest: bad verification key: %w", err)
	}
	// Step 3: hash the encrypted bitstream, derive the session key, sign.
	bsHash := enc.Hash()
	shared, err := k.AttestKey().SharedSecret(verifPub)
	if err != nil {
		return nil, err
	}
	sessionKey := kdf.SessionKey(shared.Bytes(), ch.Nonce)
	sessionSig := k.AttestKey().Sign(sessionBinding(sessionKey, ch.Nonce))
	kh := k.KernelHash()
	rep := Report{
		Nonce:         ch.Nonce,
		BitstreamHash: bsHash[:],
		AttestPub:     k.AttestKey().PublicKey.Bytes(),
		KernelHash:    kh[:],
		KernelCert:    k.KernelCert(),
		DeviceSerial:  k.Device().Serial,
	}
	sig := k.AttestKey().Sign(rep.canonical())
	msg := reportMsg{
		Report:      rep,
		SigE:        sig.E.Bytes(),
		SigS:        sig.S.Bytes(),
		SessionSigE: sessionSig.E.Bytes(),
		SessionSigS: sessionSig.S.Bytes(),
	}
	if err := writeMsg(conn, msg); err != nil {
		return nil, err
	}
	// Vendor verdict, then (on success) the key delivery.
	var verdict vendorError
	if err := readMsg(conn, &verdict); err != nil {
		return nil, err
	}
	if !verdict.OK {
		return nil, fmt.Errorf("attest: vendor rejected attestation: %s", verdict.Error)
	}
	var delivery keyDelivery
	if err := readMsg(conn, &delivery); err != nil {
		return nil, err
	}
	bitKey, err := aead.Open(sessionKey, delivery.Sealed)
	if err != nil {
		return nil, fmt.Errorf("attest: session payload authentication failed: %w", err)
	}
	return bitKey, nil
}
