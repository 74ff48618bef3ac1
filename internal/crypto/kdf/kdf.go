// Package kdf implements an HKDF-style extract-and-expand key derivation
// function over HMAC-SHA256 (RFC 5869 construction).
//
// ShEF derives symmetric session keys from DH shared secrets (Figure 3) and
// expands seed material into attestation-key scalars; both uses route
// through this package.
package kdf

import (
	"crypto/sha256"

	"shef/internal/crypto/hmacx"
)

// Extract condenses input keying material into a pseudorandom key.
func Extract(salt, ikm []byte) [sha256.Size]byte {
	return hmacx.Sum(salt, ikm)
}

// Expand stretches a pseudorandom key into n bytes bound to info.
func Expand(prk [sha256.Size]byte, info []byte, n int) []byte {
	out := make([]byte, 0, n)
	var prev []byte
	for counter := byte(1); len(out) < n; counter++ {
		msg := make([]byte, 0, len(prev)+len(info)+1)
		msg = append(msg, prev...)
		msg = append(msg, info...)
		msg = append(msg, counter)
		t := hmacx.Sum(prk[:], msg)
		prev = t[:]
		out = append(out, t[:]...)
	}
	return out[:n]
}

// Derive is the common extract-then-expand path.
func Derive(salt, ikm, info []byte, n int) []byte {
	return Expand(Extract(salt, ikm), info, n)
}

// SessionKey derives the 32-byte SessionKey of Figure 3 from a DH shared
// secret and the transcript nonce.
func SessionKey(shared []byte, nonce []byte) []byte {
	return Derive([]byte("shef/session"), shared, nonce, 32)
}
