// Package pmacx implements PMAC (a parallelisable message authentication
// code, Black–Rogaway) over AES, plus its cycle model.
//
// The paper replaces the serial HMAC engine with PMAC engines when a
// workload is authentication-bound (§6.2.3, §6.2.4): because PMAC's block
// computations are independent, MAC throughput scales with the number of
// engines, unlike HMAC. The implementation below follows the PMAC1
// construction: Sigma = XOR_i AES(M_i xor Delta_i), tag = AES(Sigma xor
// pad(M_last) xor Delta*), where the offsets Delta derive from L = AES(0)
// by Galois-field doubling.
package pmacx

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
)

// TagSize matches the Shield's 16-byte stored tag.
const TagSize = 16

// MAC is a PMAC instance bound to one AES key, held as the
// cipher.Block (crypto/aes) it runs on.
type MAC struct {
	cipher cipher.Block
	l      [16]byte // L = AES_K(0^128)
	lInv   [16]byte // L / x, for final-block offset when the last block is full
	// Word forms of l and lInv (big-endian hi/lo halves) feed the
	// word-wise SumWith loop, which runs the offset doubling and the
	// XOR folds 8 bytes at a time instead of byte by byte.
	lHi, lLo       uint64
	lInvHi, lInvLo uint64
}

// New builds a PMAC instance over an AES block cipher.
func New(b cipher.Block) *MAC {
	m := &MAC{cipher: b}
	var zero [16]byte
	b.Encrypt(m.l[:], zero[:])
	m.lInv = halve(m.l)
	m.lHi = binary.BigEndian.Uint64(m.l[0:8])
	m.lLo = binary.BigEndian.Uint64(m.l[8:16])
	m.lInvHi = binary.BigEndian.Uint64(m.lInv[0:8])
	m.lInvLo = binary.BigEndian.Uint64(m.lInv[8:16])
	return m
}

// Scratch holds the block buffers of one in-flight PMAC computation.
// They cannot live on SumWith's stack: the buffers cross the cipher.Block
// interface boundary, so escape analysis would heap-allocate them per
// call. Callers on the hot path keep one Scratch per worker (the
// Shield's seal scratch does); a zero Scratch is ready for use.
type Scratch struct {
	sigma, tmp, enc, final, tag [16]byte
}

// Sum computes the 16-byte PMAC tag of msg. It allocates a transient
// scratch; hot paths should hold a Scratch and call SumWith.
func (m *MAC) Sum(msg []byte) [TagSize]byte {
	var sc Scratch
	return m.SumWith(&sc, msg)
}

// SumWith computes the 16-byte PMAC tag of msg using caller scratch,
// allocating nothing. The offset doubling and all XOR folds operate on
// big-endian uint64 halves — bit-identical to the byte-wise reference
// (the property tests against Sum and the committed fuzz corpus pin
// this) but ~4x cheaper per block, which matters because SumWith is the
// single hottest function on the real seal/open path.
func (m *MAC) SumWith(sc *Scratch, msg []byte) [TagSize]byte {
	full := len(msg) / 16
	rem := len(msg) % 16
	lastFull := rem == 0 && full > 0
	n := full
	if lastFull {
		n-- // final full block is folded into the tag computation instead
	}
	deltaHi, deltaLo := m.lHi, m.lLo
	var sigmaHi, sigmaLo uint64
	for i := 0; i < n; i++ {
		deltaHi, deltaLo = doubleWords(deltaHi, deltaLo)
		blk := msg[i*16 : i*16+16]
		binary.BigEndian.PutUint64(sc.tmp[0:8], binary.BigEndian.Uint64(blk[0:8])^deltaHi)
		binary.BigEndian.PutUint64(sc.tmp[8:16], binary.BigEndian.Uint64(blk[8:16])^deltaLo)
		m.cipher.Encrypt(sc.enc[:], sc.tmp[:])
		sigmaHi ^= binary.BigEndian.Uint64(sc.enc[0:8])
		sigmaLo ^= binary.BigEndian.Uint64(sc.enc[8:16])
	}
	// Fold in the final block.
	if lastFull {
		blk := msg[len(msg)-16:]
		binary.BigEndian.PutUint64(sc.final[0:8], binary.BigEndian.Uint64(blk[0:8])^sigmaHi^m.lInvHi)
		binary.BigEndian.PutUint64(sc.final[8:16], binary.BigEndian.Uint64(blk[8:16])^sigmaLo^m.lInvLo)
	} else {
		// Pad 10* and do not apply the L/x offset (distinguishes lengths).
		sc.final = [16]byte{}
		copy(sc.final[:], msg[full*16:])
		sc.final[rem] = 0x80
		binary.BigEndian.PutUint64(sc.final[0:8], binary.BigEndian.Uint64(sc.final[0:8])^sigmaHi)
		binary.BigEndian.PutUint64(sc.final[8:16], binary.BigEndian.Uint64(sc.final[8:16])^sigmaLo)
	}
	m.cipher.Encrypt(sc.tag[:], sc.final[:])
	return sc.tag
}

// Verify reports whether tag authenticates msg, in constant time.
func (m *MAC) Verify(msg []byte, tag [TagSize]byte) bool {
	want := m.Sum(msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// VerifyWith reports whether tag authenticates msg using caller scratch,
// in constant time and without allocating.
func (m *MAC) VerifyWith(sc *Scratch, msg []byte, tag [TagSize]byte) bool {
	want := m.SumWith(sc, msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// double multiplies a 128-bit block by x in GF(2^128) with the standard
// 0x87 reduction.
func double(b [16]byte) [16]byte {
	hi, lo := doubleWords(binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16]))
	var out [16]byte
	binary.BigEndian.PutUint64(out[0:8], hi)
	binary.BigEndian.PutUint64(out[8:16], lo)
	return out
}

// doubleWords is double on big-endian uint64 halves.
func doubleWords(hi, lo uint64) (uint64, uint64) {
	msb := hi >> 63
	hi = hi<<1 | lo>>63
	lo <<= 1
	if msb != 0 {
		lo ^= 0x87
	}
	return hi, lo
}

// halve multiplies by x^-1 in GF(2^128).
func halve(b [16]byte) [16]byte {
	var out [16]byte
	low := b[15] & 1
	carry := byte(0)
	for i := 0; i < 16; i++ {
		out[i] = b[i]>>1 | carry<<7
		carry = b[i] & 1
	}
	if low != 0 {
		out[0] ^= 0x80
		out[15] ^= 0x43
	}
	return out
}

// Cycles is the cost of MACing n bytes on `engines` parallel PMAC engines,
// each processing one AES block per aesCyclesPerBlock cycles. The block
// computations distribute across engines; the final XOR-fold and tag
// encryption are a small serial tail.
func Cycles(n int, engines int, aesCyclesPerBlock uint64) uint64 {
	if engines < 1 {
		engines = 1
	}
	blocks := (n + 15) / 16
	if blocks == 0 {
		blocks = 1
	}
	waves := uint64((blocks + engines - 1) / engines)
	return waves*aesCyclesPerBlock + aesCyclesPerBlock // parallel phase + final tag block
}
