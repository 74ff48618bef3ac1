package aesx

import (
	"crypto/cipher"
	"encoding/binary"
)

// IVSize is the Shield's initialisation-vector length: each authenticated
// encryption chunk carries a 12-byte IV, and the low 4 bytes of the counter
// block index the 16-byte blocks within the chunk (paper §5.2.2).
const IVSize = 12

// CTR encrypts or decrypts src into dst using AES-CTR with the given
// 12-byte IV. The counter block is IV || big-endian 32-bit block counter
// starting at 0. dst and src may alias. The operation is its own inverse,
// and its output equals cipher.NewCTR over the counter block IV||0.
func CTR(c cipher.Block, iv [IVSize]byte, dst, src []byte) {
	var st CTRStream
	st.XORKeyStream(c, iv, dst, src)
}

// CTRStream holds the counter-block and keystream scratch of a CTR pass
// as addressable state, so the Shield's seal scratch pool can check one
// out per in-flight chunk and drive a window's consecutive chunks
// through it. The counter block is rebuilt from the IV on every call
// (each chunk has its own IV); what persists across calls is only the
// scratch storage.
type CTRStream struct {
	ctrBlock [BlockSize]byte
	ks       [BlockSize]byte
}

// XORKeyStream encrypts or decrypts src into dst under iv, using the
// stream's scratch. Semantics match CTR; dst and src may alias.
func (st *CTRStream) XORKeyStream(c cipher.Block, iv [IVSize]byte, dst, src []byte) {
	if len(dst) < len(src) {
		panic("aesx: CTR destination shorter than source")
	}
	copy(st.ctrBlock[:], iv[:])
	off, ctr := 0, uint32(0)
	// Full blocks: XOR eight bytes at a time through the scratch words.
	for ; off+BlockSize <= len(src); off, ctr = off+BlockSize, ctr+1 {
		binary.BigEndian.PutUint32(st.ctrBlock[IVSize:], ctr)
		c.Encrypt(st.ks[:], st.ctrBlock[:])
		k0 := binary.LittleEndian.Uint64(st.ks[0:8])
		k1 := binary.LittleEndian.Uint64(st.ks[8:16])
		s0 := binary.LittleEndian.Uint64(src[off : off+8])
		s1 := binary.LittleEndian.Uint64(src[off+8 : off+16])
		binary.LittleEndian.PutUint64(dst[off:off+8], s0^k0)
		binary.LittleEndian.PutUint64(dst[off+8:off+16], s1^k1)
	}
	if off < len(src) {
		binary.BigEndian.PutUint32(st.ctrBlock[IVSize:], ctr)
		c.Encrypt(st.ks[:], st.ctrBlock[:])
		for i := 0; off+i < len(src); i++ {
			dst[off+i] = src[off+i] ^ st.ks[i]
		}
	}
}

// ChunkIV derives the per-chunk IV for a Shield memory region. Successive
// chunks increment the IV by one (paper §5.2.2: "incremented by 1 for each
// successive chunk"), and the write version is folded in so that no two
// ciphertexts of the same chunk ever reuse an IV even across rewrites.
//
// Layout: 4-byte region ID || 4-byte chunk index || 4-byte version.
func ChunkIV(regionID uint32, chunkIndex uint32, version uint32) [IVSize]byte {
	var iv [IVSize]byte
	binary.BigEndian.PutUint32(iv[0:], regionID)
	binary.BigEndian.PutUint32(iv[4:], chunkIndex)
	binary.BigEndian.PutUint32(iv[8:], version)
	return iv
}
