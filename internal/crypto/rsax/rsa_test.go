package rsax

import (
	"math/big"
	"sync"
	"testing"
)

// testKey is generated once; 1024-bit keys keep the suite fast while
// exercising the full code path.
var (
	testKeyOnce sync.Once
	testKey     *PrivateKey
)

func key(t *testing.T) *PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateKey(nil, 1024)
		if err != nil {
			t.Fatal(err)
		}
		testKey = k
	})
	return testKey
}

func TestSignVerify(t *testing.T) {
	k := key(t)
	msg := []byte("device certificate body")
	sig, err := k.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(&k.PublicKey, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(&k.PublicKey, []byte("other"), sig) {
		t.Fatal("signature accepted for wrong message")
	}
}

func TestSignatureTamper(t *testing.T) {
	k := key(t)
	msg := []byte("m")
	sig, _ := k.Sign(msg)
	for _, i := range []int{0, len(sig) / 2, len(sig) - 1} {
		bad := append([]byte(nil), sig...)
		bad[i] ^= 0x40
		if Verify(&k.PublicKey, msg, bad) {
			t.Fatalf("tampered signature (byte %d) accepted", i)
		}
	}
}

func TestVerifyRejectsWrongLength(t *testing.T) {
	k := key(t)
	msg := []byte("m")
	sig, _ := k.Sign(msg)
	if Verify(&k.PublicKey, msg, sig[:len(sig)-1]) {
		t.Fatal("short signature accepted")
	}
	if Verify(&k.PublicKey, msg, append(sig, 0)) {
		t.Fatal("long signature accepted")
	}
}

func TestVerifyRejectsSigGEModulus(t *testing.T) {
	k := key(t)
	n := k.N
	big := make([]byte, (n.BitLen()+7)/8)
	for i := range big {
		big[i] = 0xFF
	}
	if Verify(&k.PublicKey, []byte("m"), big) {
		t.Fatal("signature >= N accepted")
	}
}

func TestKeyProperties(t *testing.T) {
	k := key(t)
	if k.N.BitLen() != 1024 {
		t.Errorf("modulus is %d bits, want 1024", k.N.BitLen())
	}
	pq := new(big.Int).Mul(k.P, k.Q)
	if pq.Cmp(k.N) != 0 {
		t.Error("N != P*Q")
	}
	// d*e == 1 mod phi
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(k.P, one), new(big.Int).Sub(k.Q, one))
	de := new(big.Int).Mul(k.D, big.NewInt(int64(k.E)))
	de.Mod(de, phi)
	if de.Cmp(one) != 0 {
		t.Error("d*e != 1 mod phi(N)")
	}
}

func TestGenerateKeyRejectsTiny(t *testing.T) {
	if _, err := GenerateKey(nil, 128); err == nil {
		t.Fatal("accepted 128-bit modulus")
	}
}

func TestVerifyNilSafety(t *testing.T) {
	if Verify(nil, []byte("m"), []byte("sig")) {
		t.Fatal("nil key verified")
	}
	if Verify(&PublicKey{}, []byte("m"), []byte("sig")) {
		t.Fatal("empty key verified")
	}
}
