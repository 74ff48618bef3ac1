// Package keywrap implements the hybrid encryption ShEF uses for Load Keys:
// the Data Owner encrypts a Data Encryption Key against the IP Vendor's
// public Shield Encryption Key so only the Shield module embedded in the
// bitstream can recover it (paper §3, steps 10-11).
//
// Construction: ephemeral-static Diffie-Hellman to the recipient's public
// element, HKDF to one 32-byte key, and aead (AES-256-GCM) over the
// payload.
package keywrap

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"shef/internal/crypto/aead"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/schnorr"
)

// Wrapped is a sealed payload addressed to one Shield key pair.
type Wrapped struct {
	Ephemeral []byte // sender's ephemeral public element g^r
	Sealed    []byte // payload sealed with aead.Seal
}

// Wrap seals payload to the recipient public key. rng may be nil for
// crypto/rand.
func Wrap(recipient *schnorr.PublicKey, payload []byte, rng io.Reader) (*Wrapped, error) {
	if recipient == nil {
		return nil, errors.New("keywrap: nil recipient")
	}
	eph, err := schnorr.GenerateKey(recipient.Group, rng)
	if err != nil {
		return nil, err
	}
	shared, err := eph.SharedSecret(recipient)
	if err != nil {
		return nil, err
	}
	sealed, err := aead.Seal(wrapKey(shared, eph.Y, recipient.Y), payload)
	if err != nil {
		return nil, err
	}
	return &Wrapped{Ephemeral: eph.PublicKey.Bytes(), Sealed: sealed}, nil
}

// Unwrap opens a sealed payload with the recipient's private key. It fails
// if the payload does not authenticate.
func Unwrap(recipient *schnorr.PrivateKey, w *Wrapped) ([]byte, error) {
	if w == nil {
		return nil, errors.New("keywrap: nil payload")
	}
	ephPub, err := schnorr.PublicKeyFromBytes(recipient.Group, w.Ephemeral)
	if err != nil {
		return nil, err
	}
	shared, err := recipient.SharedSecret(ephPub)
	if err != nil {
		return nil, err
	}
	pt, err := aead.Open(wrapKey(shared, ephPub.Y, recipient.Y), w.Sealed)
	if err != nil {
		return nil, fmt.Errorf("keywrap: authentication failed: %w", err)
	}
	return pt, nil
}

func wrapKey(shared *big.Int, ephY, recipientY *big.Int) []byte {
	info := append(ephY.Bytes(), recipientY.Bytes()...)
	return kdf.Derive([]byte("shef/keywrap"), shared.Bytes(), info, 32)
}
