// Package hmacx provides the Shield's truncated HMAC-SHA256 tag over
// crypto/hmac.
//
// The Shield's default authentication engine is a SHA-256 HMAC core (paper
// Table 1). Its cycle cost is modelled by the engine set in package shield,
// the one place the Shield's crypto costs are computed.
package hmacx

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
)

// TagSize is the truncated MAC tag the Shield stores per chunk: 16 bytes
// (paper §5.2.2: "each chunk is authenticated via a 16-byte MAC tag").
const TagSize = 16

// BlockSize is the SHA-256 message block size in bytes.
const BlockSize = sha256.BlockSize

// CyclesPerBlock is the cycle cost of one 64-byte compression in an
// accelerator's SHA-256 core: one round per cycle plus schedule/setup. The
// bitcoin design prices its double-SHA nonce search with it.
const CyclesPerBlock = 68

// Sum computes the full 32-byte HMAC-SHA256 of msg under key.
func Sum(key, msg []byte) [sha256.Size]byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	var out [sha256.Size]byte
	m.Sum(out[:0])
	return out
}

// Tag computes the Shield's 16-byte truncated tag over msg.
func Tag(key, msg []byte) [TagSize]byte {
	full := Sum(key, msg)
	var t [TagSize]byte
	copy(t[:], full[:TagSize])
	return t
}

// Verify reports whether tag is the correct truncated tag for msg under
// key, in constant time.
func Verify(key, msg []byte, tag [TagSize]byte) bool {
	want := Tag(key, msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}
