package pmacx

import (
	"bytes"
	"crypto/aes"
	"testing"
	"testing/quick"
)

func newMAC(t testing.TB, key []byte) *MAC {
	t.Helper()
	b, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return New(b)
}

func TestDeterministic(t *testing.T) {
	m := newMAC(t, make([]byte, 16))
	msg := []byte("deterministic MAC over a chunk")
	if m.Sum(msg) != m.Sum(msg) {
		t.Fatal("PMAC not deterministic")
	}
}

func TestKeySeparation(t *testing.T) {
	k1 := make([]byte, 16)
	k2 := make([]byte, 16)
	k2[0] = 1
	m1 := newMAC(t, k1)
	m2 := newMAC(t, k2)
	msg := []byte("same message, different keys")
	if m1.Sum(msg) == m2.Sum(msg) {
		t.Fatal("tags collide across keys")
	}
}

func TestVerify(t *testing.T) {
	m := newMAC(t, make([]byte, 32))
	msg := bytes.Repeat([]byte{0xAB}, 4096)
	tag := m.Sum(msg)
	var sc Scratch
	if !m.VerifyWith(&sc, msg, tag) {
		t.Fatal("valid tag rejected")
	}
	msg[100] ^= 1
	if m.VerifyWith(&sc, msg, tag) {
		t.Fatal("tampered message accepted")
	}
}

// Property: messages differing in any byte, or by length, yield different
// tags (no trivial padding/length collisions).
func TestNoLengthExtensionCollision(t *testing.T) {
	m := newMAC(t, []byte("0123456789abcdef"))
	f := func(msg []byte) bool {
		t1 := m.Sum(msg)
		t2 := m.Sum(append(msg, 0x00))
		return t1 != t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFullBlockVsPadded(t *testing.T) {
	m := newMAC(t, make([]byte, 16))
	// A 16-byte message (full final block) vs the same 16 bytes followed by
	// the 10* pad as explicit data must not collide.
	full := bytes.Repeat([]byte{0x42}, 16)
	padded := append(append([]byte{}, full...), 0x80)
	if m.Sum(full) == m.Sum(padded[:17]) {
		t.Fatal("full-block and padded messages collide")
	}
}

func TestEmptyAndSingleByte(t *testing.T) {
	m := newMAC(t, make([]byte, 16))
	if m.Sum(nil) == m.Sum([]byte{0}) {
		t.Fatal("empty and single-zero-byte messages collide")
	}
}

func TestBitFlipSensitivity(t *testing.T) {
	m := newMAC(t, []byte("kkkkkkkkkkkkkkkk"))
	f := func(msg []byte, pos uint16) bool {
		if len(msg) == 0 {
			return true
		}
		orig := m.Sum(msg)
		i := int(pos) % len(msg)
		bit := byte(1) << (pos % 8)
		msg[i] ^= bit
		return m.Sum(msg) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleHalveInverse(t *testing.T) {
	f := func(b [16]byte) bool {
		return halve(double(b)) == b && double(halve(b)) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPMAC4K(b *testing.B) {
	m := newMAC(b, make([]byte, 16))
	msg := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		m.Sum(msg)
	}
}
