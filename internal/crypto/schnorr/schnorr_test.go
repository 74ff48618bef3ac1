package schnorr

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"

	"shef/internal/crypto/modp"
)

func TestSignVerify(t *testing.T) {
	key, err := GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("attestation report alpha")
	sig := key.Sign(msg)
	if !Verify(&key.PublicKey, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(&key.PublicKey, []byte("different"), sig) {
		t.Fatal("signature accepted for wrong message")
	}
}

func TestSignatureTamper(t *testing.T) {
	key, _ := GenerateKey(modp.TestGroup, nil)
	msg := []byte("m")
	sig := key.Sign(msg)
	bad := sig
	bad.S = new(big.Int).Add(sig.S, big.NewInt(1))
	if Verify(&key.PublicKey, msg, bad) {
		t.Fatal("tampered S accepted")
	}
	bad = sig
	bad.E = new(big.Int).Add(sig.E, big.NewInt(1))
	if Verify(&key.PublicKey, msg, bad) {
		t.Fatal("tampered E accepted")
	}
}

func TestWrongKeyRejected(t *testing.T) {
	k1, _ := GenerateKey(modp.TestGroup, nil)
	k2, _ := GenerateKey(modp.TestGroup, nil)
	msg := []byte("m")
	if Verify(&k2.PublicKey, msg, k1.Sign(msg)) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestDeterministicSigning(t *testing.T) {
	key, _ := GenerateKey(modp.TestGroup, nil)
	msg := []byte("nonce-free signing")
	s1 := key.Sign(msg)
	s2 := key.Sign(msg)
	if s1.E.Cmp(s2.E) != 0 || s1.S.Cmp(s2.S) != 0 {
		t.Fatal("signing is not deterministic")
	}
}

func TestKeyFromSeedDeterministic(t *testing.T) {
	a := KeyFromSeed(modp.TestGroup, []byte("seed"))
	b := KeyFromSeed(modp.TestGroup, []byte("seed"))
	c := KeyFromSeed(modp.TestGroup, []byte("seed2"))
	if a.X.Cmp(b.X) != 0 {
		t.Fatal("same seed produced different keys")
	}
	if a.X.Cmp(c.X) == 0 {
		t.Fatal("different seeds produced same key")
	}
	if !Verify(&a.PublicKey, []byte("m"), b.Sign([]byte("m"))) {
		t.Fatal("seed-derived keys not interoperable")
	}
}

func TestSharedSecretAgreement(t *testing.T) {
	alice, _ := GenerateKey(modp.TestGroup, nil)
	bob, _ := GenerateKey(modp.TestGroup, nil)
	s1, err := alice.SharedSecret(&bob.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := bob.SharedSecret(&alice.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cmp(s2) != 0 {
		t.Fatal("DH shared secrets differ")
	}
	eve, _ := GenerateKey(modp.TestGroup, nil)
	s3, _ := eve.SharedSecret(&bob.PublicKey)
	if s3.Cmp(s1) == 0 {
		t.Fatal("third party derived the same secret")
	}
}

func TestSharedSecretRejectsInvalidElements(t *testing.T) {
	key, _ := GenerateKey(modp.TestGroup, nil)
	for _, y := range []*big.Int{big.NewInt(0), big.NewInt(1),
		new(big.Int).Sub(modp.TestGroup.P, big.NewInt(1)), modp.TestGroup.P} {
		peer := &PublicKey{Group: modp.TestGroup, Y: y}
		if _, err := key.SharedSecret(peer); err == nil {
			t.Errorf("accepted invalid element %v", y)
		}
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	key, _ := GenerateKey(modp.TestGroup, nil)
	b := key.PublicKey.Bytes()
	got, err := PublicKeyFromBytes(modp.TestGroup, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Y.Cmp(key.Y) != 0 {
		t.Fatal("public key round trip changed value")
	}
	if !bytes.Equal(got.Bytes(), b) {
		t.Fatal("encoding not stable across serialisation")
	}
}

func TestPublicKeyFromBytesRejectsGarbage(t *testing.T) {
	if _, err := PublicKeyFromBytes(modp.TestGroup, nil); err == nil {
		t.Fatal("accepted empty encoding")
	}
	if _, err := PublicKeyFromBytes(modp.TestGroup, []byte{1}); err == nil {
		t.Fatal("accepted identity element")
	}
}

// Property: signatures over random messages always verify, and never verify
// under a perturbed message.
func TestSignVerifyProperty(t *testing.T) {
	key, _ := GenerateKey(modp.TestGroup, nil)
	f := func(msg []byte) bool {
		sig := key.Sign(msg)
		if !Verify(&key.PublicKey, msg, sig) {
			return false
		}
		return !Verify(&key.PublicKey, append(msg, 1), sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProductionGroupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-bit group in -short mode")
	}
	key, err := GenerateKey(modp.Group14, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("production group")
	if !Verify(&key.PublicKey, msg, key.Sign(msg)) {
		t.Fatal("Group14 sign/verify failed")
	}
}
