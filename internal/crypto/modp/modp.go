// Package modp provides the finite-field group used by ShEF's attestation
// cryptography: the 2048-bit MODP group from RFC 3526 (group 14), which is
// a safe-prime group, plus a smaller 512-bit group for fast tests.
//
// ShEF's Figure 3 protocol needs key pairs that support both Diffie-Hellman
// key exchange (SessionKey = DHKE(VerifKey, AttestKey)) and digital
// signatures (Sign_AttestKey). A discrete-log key pair over this group
// provides both: DH via g^xy and Schnorr signatures via package schnorr.
//
// Generator powers G^x, the bulk of every attestation session's modular
// arithmetic, go through a Lim–Lee fixed-base comb (Lim & Lee, CRYPTO '94)
// with 8 teeth and 2 sub-tables: 2×256 precomputed powers of G per group,
// built lazily on the first Exp. For the 511-bit exponents of TestGroup an
// Exp costs 31 modular squarings and at most 64 modular multiplications;
// for Group14's 2047-bit exponents, 127 and 256. Both groups take the same
// path. The table holds 512 group elements: about 32 KiB of limbs for
// TestGroup and 128 KiB for Group14. Variable-base powers (ExpBase) stay on
// math/big.
//
// Like math/big's Exp, this code is not constant-time: the comb's table
// indices, and which multiplications run, depend on the exponent's bits.
package modp

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// Group describes a multiplicative group of integers modulo a safe prime P
// with generator G. Exponents are drawn from [1, Q) where Q = (P-1)/2.
type Group struct {
	Name string
	P    *big.Int // safe prime modulus
	Q    *big.Int // subgroup order (P-1)/2
	G    *big.Int // generator

	pm1, qm1 *big.Int // P-1 and Q-1, read-only after construction

	combOnce sync.Once
	comb     combTable // fixed-base table for G, built by the first Exp
}

// Comb geometry: the reduced exponent is read as combTeeth rows of
// combSubTables·b bits each, so one table lookup gathers one bit from
// every row.
const (
	combTeeth     = 8
	combSubTables = 2
)

// combTable is the Lim–Lee precomputation for G. With b columns per
// sub-table, tooth k of sub-table j stands for the exponent bit at
// position (k·combSubTables + j)·b + i in column i, and
// tab[j][idx] = Π_{k ∈ idx} G^(2^((k·combSubTables+j)·b)). Entries are
// never handed out or written after the build, so concurrent Exp calls
// share them.
type combTable struct {
	b   int
	tab [combSubTables][1 << combTeeth]*big.Int
}

var one = big.NewInt(1)

// rfc3526Group14P is the 2048-bit MODP prime from RFC 3526 §3.
const rfc3526Group14P = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

// test512P is a 512-bit safe prime for fast unit tests, found once by a
// forward safe-prime search and hard-coded so package init is cheap and
// deterministic. Verified by TestTestGroupIsSafePrime.
const test512P = "F6E54D8C1D824DE5C8F5D2BFDEBA91BEF4E3A2E97E9A64C5" +
	"2B3E44B02960AF73E0F66E4E0E3A2A2EAE8B84E0F1A51B6D" +
	"5CC82B43F47E1E3D2B29B8D6E2B95733"

var (
	// Group14 is RFC 3526 MODP group 14 (2048-bit), the production group.
	Group14 = mustGroup("modp2048", rfc3526Group14P)
	// TestGroup is a small group for unit tests. Not for production use.
	TestGroup = mustGroup("modp512-test", test512P)
)

func mustGroup(name, hexP string) *Group {
	p, ok := new(big.Int).SetString(hexP, 16)
	if !ok {
		panic("modp: bad prime constant")
	}
	pm1 := new(big.Int).Sub(p, one)
	q := new(big.Int).Rsh(pm1, 1)
	return &Group{Name: name, P: p, Q: q, G: big.NewInt(4),
		pm1: pm1, qm1: new(big.Int).Sub(q, one)}
}

// ByName resolves a group by its Name (used when reconstructing keys from
// serialised bitstream manifests).
func ByName(name string) (*Group, error) {
	switch name {
	case Group14.Name:
		return Group14, nil
	case TestGroup.Name, "":
		return TestGroup, nil
	}
	return nil, fmt.Errorf("modp: unknown group %q", name)
}

// RandScalar returns a uniformly random exponent in [1, Q).
func (g *Group) RandScalar(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	for {
		x, err := rand.Int(r, g.Q)
		if err != nil {
			return nil, fmt.Errorf("modp: sampling scalar: %w", err)
		}
		if x.Sign() > 0 {
			return x, nil
		}
	}
}

// ScalarFromBytes derives a deterministic exponent in [1, Q) from seed
// material. ShEF uses this to derive the Attestation Key from
// Sign_DeviceKey(H(SecKrnl)) so the key is cryptographically bound to the
// device and Security Kernel binary (paper §4, Secure Boot).
func (g *Group) ScalarFromBytes(seed []byte) *big.Int {
	x := new(big.Int).SetBytes(seed)
	x.Mod(x, g.qm1)
	return x.Add(x, one) // never zero
}

// Exp computes G^x mod P, equal to new(big.Int).Exp(G, x, P) for every x,
// including zero, negative and over-long exponents. G is a quadratic
// residue modulo the safe prime P, so its order is exactly Q and x may be
// reduced mod Q before the comb runs.
func (g *Group) Exp(x *big.Int) *big.Int {
	g.combOnce.Do(g.buildComb)
	e := x
	if x.Sign() < 0 || x.Cmp(g.Q) >= 0 {
		e = new(big.Int).Mod(x, g.Q)
	}
	c := &g.comb
	r := new(big.Int).Set(one)
	var prod, quo big.Int
	started := false // r is still 1: skip squarings and the first multiply
	for i := c.b - 1; i >= 0; i-- {
		if started {
			g.mulMod(r, r, r, &prod, &quo)
		}
		for j := 0; j < combSubTables; j++ {
			idx := uint(0)
			for k := 0; k < combTeeth; k++ {
				idx |= e.Bit((k*combSubTables+j)*c.b+i) << k
			}
			switch {
			case idx == 0:
			case started:
				g.mulMod(r, r, c.tab[j][idx], &prod, &quo)
			default:
				r.Set(c.tab[j][idx])
				started = true
			}
		}
	}
	return r
}

// buildComb fills g.comb: the combTeeth·combSubTables single-bit entries
// by one chain of squarings, then every other entry as the product of its
// lowest tooth and the entry without it.
func (g *Group) buildComb() {
	c := &g.comb
	const rows = combTeeth * combSubTables
	c.b = (g.Q.BitLen() + rows - 1) / rows
	var prod, quo big.Int
	pow := new(big.Int).Set(g.G)
	for k := 0; k < combTeeth; k++ {
		for j := 0; j < combSubTables; j++ {
			c.tab[j][1<<k] = new(big.Int).Set(pow)
			for s := 0; s < c.b; s++ {
				g.mulMod(pow, pow, pow, &prod, &quo)
			}
		}
	}
	for j := range c.tab {
		for idx := 3; idx < len(c.tab[j]); idx++ {
			low := idx & -idx
			if low == idx {
				continue
			}
			c.tab[j][idx] = g.mulMod(new(big.Int), c.tab[j][idx^low], c.tab[j][low], &prod, &quo)
		}
	}
}

// mulMod sets z = x·y mod P through the caller's scratch and returns z.
// z may alias x or y.
func (g *Group) mulMod(z, x, y, prod, quo *big.Int) *big.Int {
	prod.Mul(x, y)
	quo.QuoRem(prod, g.P, z)
	return z
}

// ExpBase computes base^x mod P.
func (g *Group) ExpBase(base, x *big.Int) *big.Int {
	return new(big.Int).Exp(base, x, g.P)
}

// ValidElement reports whether y is a usable public element: 1 < y < P-1.
func (g *Group) ValidElement(y *big.Int) bool {
	if y == nil || y.Cmp(one) <= 0 {
		return false
	}
	return y.Cmp(g.pm1) < 0
}
