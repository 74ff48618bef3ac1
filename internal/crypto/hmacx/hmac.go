// Package hmacx provides the Shield's truncated HMAC-SHA256 tag over
// crypto/hmac, plus the cycle model of the Shield's HMAC engine and its
// SHA-256 core.
//
// The Shield's default authentication engine is a SHA-256 HMAC core (paper
// Table 1). HMAC chains block-to-block, so a single stream cannot be
// parallelised — this is exactly the bottleneck the paper's SDP case study
// hits before switching to PMAC (§6.2.3).
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

// CyclesPerBlock is the cycle cost of one 64-byte compression in the
// Shield's SHA-256 core: one round per cycle plus schedule/setup. The core
// is inherently serial: each block's output chains into the next, so a
// single HMAC stream cannot be accelerated by adding engines (paper §6.2.3,
// where HMAC is the SDP bottleneck).
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

// Cycles is the simulated cost of MACing n message bytes on one HMAC
// engine: the inner hash absorbs the key pad plus the message, the outer
// hash absorbs two more blocks. The computation is serial; instantiating
// more HMAC engines only helps across independent chunks, never within one.
func Cycles(n int) uint64 {
	innerBlocks := 1 + (n+9+BlockSize-1)/BlockSize // ipad block + message
	outerBlocks := 2                               // opad block + inner digest
	return uint64(innerBlocks+outerBlocks) * CyclesPerBlock
}
