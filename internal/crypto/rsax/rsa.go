// Package rsax implements RSA key generation, signing, and verification
// from scratch over math/big.
//
// The FPGA Manufacturer provisions an asymmetric private device key into
// the SPB firmware (paper §3, step 2); Xilinx devices use RSA for bitstream
// authentication, so the device key and the IP Vendor's certificate key are
// RSA here. Signatures are SHA-256 with a PKCS#1 v1.5-style DigestInfo
// prefix and deterministic 0x01 FF.. padding.
package rsax

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// PublicKey is an RSA public key (N, E).
type PublicKey struct {
	N *big.Int
	E int
}

// PrivateKey is an RSA private key with CRT-free decryption exponent.
type PrivateKey struct {
	PublicKey
	D *big.Int
	P *big.Int
	Q *big.Int
}

// defaultE is the conventional public exponent.
const defaultE = 65537

// GenerateKey creates an RSA key with the given modulus size in bits.
// Randomness comes from r (crypto/rand if nil). Bits must be >= 512.
func GenerateKey(r io.Reader, bits int) (*PrivateKey, error) {
	if bits < 512 {
		return nil, fmt.Errorf("rsax: modulus too small (%d bits)", bits)
	}
	if r == nil {
		r = rand.Reader
	}
	e := big.NewInt(defaultE)
	one := big.NewInt(1)
	for {
		p, err := genPrime(r, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := genPrime(r, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue // e shares a factor with phi; retry
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, E: defaultE},
			D:         d, P: p, Q: q,
		}, nil
	}
}

func genPrime(r io.Reader, bits int) (*big.Int, error) {
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("rsax: reading randomness: %w", err)
		}
		// Force top two bits (so p*q has full length) and the low bit (odd).
		buf[0] |= 0xC0
		buf[bytes-1] |= 1
		p := new(big.Int).SetBytes(buf)
		p.Rsh(p, uint(bytes*8-bits))
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// digestInfoPrefix is the DER prefix for a SHA-256 DigestInfo (RFC 8017).
var digestInfoPrefix = []byte{
	0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
	0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20,
}

// pad builds the EMSA-PKCS1-v1_5 encoding of msg's SHA-256 digest for a
// k-byte modulus.
func pad(msg []byte, k int) ([]byte, error) {
	digest := sha256.Sum256(msg)
	tLen := len(digestInfoPrefix) + len(digest)
	if k < tLen+11 {
		return nil, errors.New("rsax: modulus too small for SHA-256 signature")
	}
	em := make([]byte, k)
	em[0] = 0x00
	em[1] = 0x01
	for i := 2; i < k-tLen-1; i++ {
		em[i] = 0xFF
	}
	em[k-tLen-1] = 0x00
	copy(em[k-tLen:], digestInfoPrefix)
	copy(em[k-len(digest):], digest[:])
	return em, nil
}

// Sign produces a signature over msg.
func (k *PrivateKey) Sign(msg []byte) ([]byte, error) {
	kBytes := (k.N.BitLen() + 7) / 8
	em, err := pad(msg, kBytes)
	if err != nil {
		return nil, err
	}
	m := new(big.Int).SetBytes(em)
	sig := new(big.Int).Exp(m, k.D, k.N)
	out := make([]byte, kBytes)
	sig.FillBytes(out)
	return out, nil
}

// Verify reports whether sig is a valid signature over msg for pub.
func Verify(pub *PublicKey, msg, sig []byte) bool {
	if pub == nil || pub.N == nil || pub.N.Sign() <= 0 {
		return false
	}
	kBytes := (pub.N.BitLen() + 7) / 8
	if len(sig) != kBytes {
		return false
	}
	s := new(big.Int).SetBytes(sig)
	if s.Cmp(pub.N) >= 0 {
		return false
	}
	m := new(big.Int).Exp(s, big.NewInt(int64(pub.E)), pub.N)
	em := make([]byte, kBytes)
	m.FillBytes(em)
	want, err := pad(msg, kBytes)
	if err != nil {
		return false
	}
	// Deterministic padding means direct comparison is sound.
	if len(em) != len(want) {
		return false
	}
	var diff byte
	for i := range em {
		diff |= em[i] ^ want[i]
	}
	return diff == 0
}
