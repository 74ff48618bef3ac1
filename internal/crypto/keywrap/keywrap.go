// Package keywrap implements the hybrid encryption ShEF uses for Load Keys:
// the Data Owner encrypts a Data Encryption Key against the IP Vendor's
// public Shield Encryption Key so only the Shield module embedded in the
// bitstream can recover it (paper §3, steps 10-11).
//
// Construction: ephemeral-static Diffie-Hellman to the recipient's public
// element, HKDF to split encryption and MAC keys, AES-256-CTR for
// confidentiality, HMAC-SHA256 (16-byte tag) for integrity in
// encrypt-then-MAC order.
package keywrap

import (
	"crypto/aes"
	"errors"
	"io"
	"math/big"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/schnorr"
)

// Wrapped is a sealed payload addressed to one Shield key pair.
type Wrapped struct {
	Ephemeral  []byte // sender's ephemeral public element g^r
	Ciphertext []byte
	Tag        [hmacx.TagSize]byte
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
	encKey, macKey := splitKeys(shared, eph.Y, recipient.Y)
	ct := make([]byte, len(payload))
	cipher, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	var iv [aesx.IVSize]byte // fresh key per wrap, zero IV is safe
	aesx.CTR(cipher, iv, ct, payload)
	return &Wrapped{
		Ephemeral:  eph.PublicKey.Bytes(),
		Ciphertext: ct,
		Tag:        hmacx.Tag(macKey, ct),
	}, nil
}

// Unwrap opens a sealed payload with the recipient's private key. It fails
// if the tag does not verify.
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
	encKey, macKey := splitKeys(shared, ephPub.Y, recipient.Y)
	if !hmacx.Verify(macKey, w.Ciphertext, w.Tag) {
		return nil, errors.New("keywrap: authentication failed")
	}
	pt := make([]byte, len(w.Ciphertext))
	cipher, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	var iv [aesx.IVSize]byte
	aesx.CTR(cipher, iv, pt, w.Ciphertext)
	return pt, nil
}

func splitKeys(shared *big.Int, ephY, recipientY *big.Int) (encKey, macKey []byte) {
	info := append(ephY.Bytes(), recipientY.Bytes()...)
	okm := kdf.Derive([]byte("shef/keywrap"), shared.Bytes(), info, 64)
	return okm[:32], okm[32:]
}
