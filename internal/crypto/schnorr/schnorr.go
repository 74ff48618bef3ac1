// Package schnorr implements Schnorr signatures and static Diffie-Hellman
// over a modp.Group.
//
// ShEF's Attestation Key and Verification Key (paper Figure 3) must support
// two operations with one key pair: signing (Sign_AttestKey over the
// attestation report and session key) and key agreement (SessionKey =
// DHKE(VerifKey_pub, AttestKey_priv)). A discrete-log key pair does both,
// which is why this package exists instead of reusing RSA.
package schnorr

import (
	"crypto/sha256"
	"errors"
	"io"
	"math/big"

	"shef/internal/crypto/modp"
)

// PublicKey is a group element Y = g^x.
type PublicKey struct {
	Group *modp.Group
	Y     *big.Int
}

// PrivateKey holds the discrete log x alongside its public half.
type PrivateKey struct {
	PublicKey
	X *big.Int
}

// Signature is a Schnorr signature (e, s) with the challenge e = H(R || Y || msg).
type Signature struct {
	E *big.Int
	S *big.Int
}

// GenerateKey creates a random key pair over group, reading randomness from
// r (crypto/rand if nil).
func GenerateKey(group *modp.Group, r io.Reader) (*PrivateKey, error) {
	x, err := group.RandScalar(r)
	if err != nil {
		return nil, err
	}
	return KeyFromScalar(group, x), nil
}

// KeyFromSeed deterministically derives a key pair from seed material.
// The SPB firmware uses this to produce the Attestation Key pair from the
// device-key signature over the Security Kernel hash.
func KeyFromSeed(group *modp.Group, seed []byte) *PrivateKey {
	return KeyFromScalar(group, group.ScalarFromBytes(seed))
}

// KeyFromScalar wraps an exponent into a key pair.
func KeyFromScalar(group *modp.Group, x *big.Int) *PrivateKey {
	return &PrivateKey{
		PublicKey: PublicKey{Group: group, Y: group.Exp(x)},
		X:         x,
	}
}

// Sign produces a Schnorr signature over msg. Randomness is derived
// deterministically from the key and message (RFC 6979-style) so signing
// never needs an entropy source at attestation time.
func (k *PrivateKey) Sign(msg []byte) Signature {
	group := k.Group
	// Deterministic nonce: H(x || msg) reduced into [1, Q).
	h := sha256.New()
	h.Write(k.X.Bytes())
	h.Write(msg)
	seed := h.Sum(nil)
	// Widen to 64 bytes to avoid bias against Q.
	h2 := sha256.New()
	h2.Write(seed[:])
	h2.Write([]byte("widen"))
	seed2 := h2.Sum(nil)
	kn := group.ScalarFromBytes(append(seed[:], seed2[:]...))

	r := group.Exp(kn)
	e := challenge(group, r, k.Y, msg)
	// s = k - x*e mod Q
	s := new(big.Int).Mul(k.X, e)
	s.Sub(kn, s)
	s.Mod(s, group.Q)
	return Signature{E: e, S: s}
}

// Verify checks sig over msg against pub.
func Verify(pub *PublicKey, msg []byte, sig Signature) bool {
	if pub == nil || sig.E == nil || sig.S == nil {
		return false
	}
	group := pub.Group
	if !group.ValidElement(pub.Y) {
		return false
	}
	if sig.S.Sign() < 0 || sig.S.Cmp(group.Q) >= 0 || sig.E.Sign() <= 0 {
		return false
	}
	// R' = g^s * Y^e ; check H(R' || Y || msg) == e
	gs := group.Exp(sig.S)
	ye := group.ExpBase(pub.Y, sig.E)
	r := new(big.Int).Mul(gs, ye)
	r.Mod(r, group.P)
	return challenge(group, r, pub.Y, msg).Cmp(sig.E) == 0
}

func challenge(group *modp.Group, r, y *big.Int, msg []byte) *big.Int {
	h := sha256.New()
	h.Write(r.Bytes())
	h.Write(y.Bytes())
	h.Write(msg)
	sum := h.Sum(nil)
	e := new(big.Int).SetBytes(sum[:])
	e.Mod(e, group.Q)
	if e.Sign() == 0 {
		e.SetInt64(1)
	}
	return e
}

// SharedSecret computes the static DH secret Y_peer^x. Both sides of
// Figure 3 call this with their private key and the other party's public
// key to derive the same SessionKey input.
func (k *PrivateKey) SharedSecret(peer *PublicKey) (*big.Int, error) {
	if peer == nil || !k.Group.ValidElement(peer.Y) {
		return nil, errors.New("schnorr: invalid peer public element")
	}
	return k.Group.ExpBase(peer.Y, k.X), nil
}

// Fingerprint returns a stable 32-byte identifier for the public key,
// suitable for certificate contents and audit lists.
func (p *PublicKey) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(p.Group.Name))
	h.Write(p.Y.Bytes())
	return [sha256.Size]byte(h.Sum(nil))
}

// Bytes serialises the public element.
func (p *PublicKey) Bytes() []byte { return p.Y.Bytes() }

// PublicKeyFromBytes reconstructs a public key over group.
func PublicKeyFromBytes(group *modp.Group, b []byte) (*PublicKey, error) {
	y := new(big.Int).SetBytes(b)
	pk := &PublicKey{Group: group, Y: y}
	if !group.ValidElement(y) {
		return nil, errors.New("schnorr: invalid public key encoding")
	}
	return pk, nil
}
