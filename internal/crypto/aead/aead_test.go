package aead

import (
	"bytes"
	"testing"
)

// overhead is what Seal adds: a 12-byte nonce and a 16-byte tag.
const overhead = 12 + 16

func TestSealOpen(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 32)
	msg := []byte("bitstream encryption key")
	blob, err := Seal(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != len(msg)+overhead {
		t.Fatalf("blob is %d bytes, want %d", len(blob), len(msg)+overhead)
	}
	if bytes.Contains(blob, msg) {
		t.Fatal("plaintext visible in the blob")
	}
	got, err := Open(key, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip changed the plaintext")
	}
	again, _ := Seal(key, msg)
	if bytes.Equal(again, blob) {
		t.Fatal("two seals of one message under one key are identical (nonce reuse)")
	}
	empty, err := Seal(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Open(key, empty); err != nil || len(got) != 0 {
		t.Fatalf("empty plaintext: got %q, %v", got, err)
	}
}

func TestOpenRejects(t *testing.T) {
	key := bytes.Repeat([]byte{0x5a}, 16)
	blob, _ := Seal(key, []byte("user key database"))
	flip := func(i int) []byte {
		b := append([]byte(nil), blob...)
		b[i] ^= 1
		return b
	}
	for name, bad := range map[string][]byte{
		"nonce":     flip(0),
		"body":      flip(overhead - 16),
		"tag":       flip(len(blob) - 1),
		"truncated": blob[:len(blob)-1],
		"short":     blob[:overhead-1],
		"empty":     nil,
	} {
		if _, err := Open(key, bad); err == nil {
			t.Errorf("%s: tampered blob opened", name)
		}
	}
	if _, err := Open(bytes.Repeat([]byte{0x5b}, 16), blob); err == nil {
		t.Error("blob opened under the wrong key")
	}
	if _, err := Seal([]byte("short"), nil); err == nil {
		t.Error("Seal accepted a 5-byte key")
	}
}
