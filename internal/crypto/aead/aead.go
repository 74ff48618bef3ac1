// Package aead is the one authenticated cipher for every secret ShEF seals
// outside the Shield's memory path: the PUF-wrapped device key and the SPB
// firmware (paper §3 steps 1-2), the encrypted bitstream, the Bitstream
// Key delivered under the attestation SessionKey, the Load Key (steps
// 10-11) and the SDP user-key database. It is AES-GCM from the standard
// library, as UltraScale+ parts use for encrypted bitstreams.
//
// The Shield's chunk sealer and register file do not use it: they model
// the paper's CTR and HMAC/PMAC hardware engines, whose cycle costs and
// wire format are pinned separately.
package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
)

// Seal encrypts and authenticates plaintext under key (16, 24 or 32
// bytes). The blob is a fresh random 12-byte nonce, the ciphertext and a
// 16-byte tag, so one key may seal many messages.
func Seal(key, plaintext []byte) ([]byte, error) {
	g, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, g.NonceSize(), g.NonceSize()+len(plaintext)+g.Overhead())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return g.Seal(nonce, nonce, plaintext, nil), nil
}

// Open authenticates and decrypts a blob made by Seal. It fails on a
// blob too short to hold a nonce and tag, on any flipped bit, and under
// the wrong key.
func Open(key, blob []byte) ([]byte, error) {
	g, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	n := g.NonceSize()
	if len(blob) < n+g.Overhead() {
		return nil, errors.New("aead: sealed blob too short")
	}
	return g.Open(nil, blob[:n], blob[n:], nil)
}

func newGCM(key []byte) (cipher.AEAD, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(b)
}
