// Package bitstream models the partial-bitstream toolchain: the IP Vendor
// compiles an accelerator design plus its Shield configuration (and the
// embedded private Shield Encryption Key) into a bitstream, encrypts it
// under the Bitstream Encryption Key (paper §3, Accelerator Development).
//
// A real bitstream is an opaque FPGA configuration image; here the payload
// is a manifest naming a registered accelerator design and carrying the
// Shield configuration. What matters for ShEF is preserved exactly: the
// encrypted image hides the design and the embedded Shield key, its hash
// is what remote attestation reports, and only a Security Kernel holding
// the Bitstream Encryption Key can load it.
package bitstream

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"shef/internal/crypto/aead"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/fpga"
	"shef/internal/shield"
)

// Manifest is the plaintext content of a partial bitstream.
type Manifest struct {
	// Design names the accelerator in the design registry (accel package).
	Design string `json:"design"`
	// Version is the IP Vendor's release tag.
	Version string `json:"version"`
	// Params carries design-specific knobs (sizes, difficulty, ...).
	Params map[string]string `json:"params,omitempty"`
	// Shield is the complete Shield configuration for this accelerator.
	Shield shield.Config `json:"shield"`
	// ShieldPrivKey is the private Shield Encryption Key scalar, embedded
	// in the design exactly as the paper embeds it in Shield RTL.
	ShieldPrivKey []byte `json:"shield_priv_key"`
	// Group names the discrete-log group of the Shield key (modp.ByName);
	// empty selects the simulation default.
	Group string `json:"group,omitempty"`
	// Resources is the compiled design's area (accelerator + Shield).
	Resources fpga.Resources `json:"resources"`
}

// ShieldKey reconstructs the embedded Shield Encryption Key pair.
func (m *Manifest) ShieldKey() (*schnorr.PrivateKey, error) {
	if len(m.ShieldPrivKey) == 0 {
		return nil, errors.New("bitstream: manifest carries no shield key")
	}
	group, err := modp.ByName(m.Group)
	if err != nil {
		return nil, err
	}
	x := new(big.Int).SetBytes(m.ShieldPrivKey)
	return schnorr.KeyFromScalar(group, x), nil
}

// Encrypted is a distributable encrypted partial bitstream.
type Encrypted struct {
	// Name identifies the bitstream (marketplace listing, AFI id, ...).
	Name string `json:"name"`
	// Blob is the manifest sealed with aead.Seal under the Bitstream
	// Encryption Key.
	Blob []byte `json:"blob"`
}

// Hash is the value remote attestation reports:
// H(Enc_BitstrKey(Accelerator)) in Figure 3.
func (e *Encrypted) Hash() [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(e.Name))
	h.Write(e.Blob)
	return [sha256.Size]byte(h.Sum(nil))
}

// Compile serialises and encrypts a manifest under the Bitstream
// Encryption Key.
func Compile(name string, m *Manifest, bitstreamKey []byte) (*Encrypted, error) {
	if err := m.Shield.Validate(); err != nil {
		return nil, fmt.Errorf("bitstream: shield config invalid: %w", err)
	}
	plain, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("bitstream: encoding manifest: %w", err)
	}
	blob, err := aead.Seal(bitstreamKey, plain)
	if err != nil {
		return nil, fmt.Errorf("bitstream: sealing manifest: %w", err)
	}
	return &Encrypted{Name: name, Blob: blob}, nil
}

// Decrypt authenticates and opens an encrypted bitstream with the
// Bitstream Encryption Key. This runs inside the Security Kernel, in
// on-chip memory, after attestation delivered the key (paper §4).
func Decrypt(e *Encrypted, bitstreamKey []byte) (*Manifest, error) {
	plain, err := aead.Open(bitstreamKey, e.Blob)
	if err != nil {
		return nil, fmt.Errorf("bitstream: authentication failed (wrong key or tampered image): %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(plain, &m); err != nil {
		return nil, fmt.Errorf("bitstream: decoding manifest: %w", err)
	}
	if err := m.Shield.Validate(); err != nil {
		return nil, fmt.Errorf("bitstream: decrypted manifest invalid: %w", err)
	}
	return &m, nil
}
