package keywrap

import (
	"bytes"
	"testing"
	"testing/quick"

	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
)

func TestWrapUnwrap(t *testing.T) {
	shieldKey, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	dek := []byte("0123456789abcdef0123456789abcdef") // a Data Encryption Key
	w, err := Wrap(&shieldKey.PublicKey, dek, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unwrap(shieldKey, w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dek) {
		t.Fatal("unwrapped payload differs")
	}
}

func TestUnwrapWrongKey(t *testing.T) {
	k1, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	k2, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	w, _ := Wrap(&k1.PublicKey, []byte("secret"), nil)
	if _, err := Unwrap(k2, w); err == nil {
		t.Fatal("unwrap succeeded with wrong private key")
	}
}

func TestUnwrapDetectsTamper(t *testing.T) {
	k, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	w, _ := Wrap(&k.PublicKey, []byte("secret data encryption key"), nil)

	ctTampered := *w
	ctTampered.Sealed = append([]byte(nil), w.Sealed...)
	ctTampered.Sealed[len(w.Sealed)/2] ^= 1
	if _, err := Unwrap(k, &ctTampered); err == nil {
		t.Fatal("ciphertext tamper not detected")
	}

	tagTampered := *w
	tagTampered.Sealed = append([]byte(nil), w.Sealed...)
	tagTampered.Sealed[len(w.Sealed)-1] ^= 1
	if _, err := Unwrap(k, &tagTampered); err == nil {
		t.Fatal("tag tamper not detected")
	}

	truncated := *w
	truncated.Sealed = w.Sealed[:len(w.Sealed)-1]
	if _, err := Unwrap(k, &truncated); err == nil {
		t.Fatal("truncated payload not detected")
	}

	ephTampered := *w
	ephTampered.Ephemeral = append([]byte(nil), w.Ephemeral...)
	ephTampered.Ephemeral[0] ^= 1
	if _, err := Unwrap(k, &ephTampered); err == nil {
		t.Fatal("ephemeral tamper not detected")
	}
}

func TestWrapFreshEphemeral(t *testing.T) {
	k, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	w1, _ := Wrap(&k.PublicKey, []byte("p"), nil)
	w2, _ := Wrap(&k.PublicKey, []byte("p"), nil)
	if bytes.Equal(w1.Ephemeral, w2.Ephemeral) {
		t.Fatal("ephemeral key reused across wraps")
	}
	if bytes.Equal(w1.Sealed, w2.Sealed) {
		t.Fatal("ciphertext identical across wraps (keystream reuse)")
	}
}

func TestRoundTripProperty(t *testing.T) {
	k, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	f := func(payload []byte) bool {
		w, err := Wrap(&k.PublicKey, payload, nil)
		if err != nil {
			return false
		}
		got, err := Unwrap(k, w)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNilInputs(t *testing.T) {
	k, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	if _, err := Wrap(nil, []byte("p"), nil); err == nil {
		t.Fatal("Wrap accepted nil recipient")
	}
	if _, err := Unwrap(k, nil); err == nil {
		t.Fatal("Unwrap accepted nil payload")
	}
}
