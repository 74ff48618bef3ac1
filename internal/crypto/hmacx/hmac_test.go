package hmacx

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// RFC 4231 HMAC-SHA-256 test cases 1, 2, 6 and 7 (short key, short "Jefe"
// key, and two keys longer than a block) through Sum, and their 16-byte
// prefixes through Tag and Verify.
func TestRFC4231(t *testing.T) {
	rep := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	cases := []struct {
		name     string
		key, msg []byte
		want     string
	}{
		{"case1", rep(0x0b, 20), []byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{"case2", []byte("Jefe"), []byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{"case6", rep(0xaa, 131), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
		{"case7", rep(0xaa, 131), []byte("This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."),
			"9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
	}
	for _, c := range cases {
		got := Sum(c.key, c.msg)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("%s: HMAC = %x, want %s", c.name, got, c.want)
		}
		tag := Tag(c.key, c.msg)
		if hex.EncodeToString(tag[:]) != c.want[:2*TagSize] {
			t.Errorf("%s: Tag = %x, want %s", c.name, tag, c.want[:2*TagSize])
		}
		if !Verify(c.key, c.msg, tag) {
			t.Errorf("%s: Verify rejected the RFC tag", c.name)
		}
	}
}

func TestAgainstStdlib(t *testing.T) {
	f := func(key, msg []byte) bool {
		ref := hmac.New(sha256.New, key)
		ref.Write(msg)
		want := ref.Sum(nil)
		got := Sum(key, msg)
		return hmac.Equal(got[:], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLongKeyHashing(t *testing.T) {
	key := make([]byte, 200) // longer than one block: must be pre-hashed
	msg := []byte("m")
	ref := hmac.New(sha256.New, key)
	ref.Write(msg)
	got := Sum(key, msg)
	if !hmac.Equal(got[:], ref.Sum(nil)) {
		t.Fatal("long-key HMAC mismatch")
	}
}

func TestVerify(t *testing.T) {
	key := []byte("k")
	msg := []byte("chunk of shielded memory")
	tag := Tag(key, msg)
	if !Verify(key, msg, tag) {
		t.Fatal("valid tag rejected")
	}
	tag[0] ^= 1
	if Verify(key, msg, tag) {
		t.Fatal("corrupted tag accepted")
	}
	if Verify(key, append(msg, 'x'), Tag(key, msg)) {
		t.Fatal("tag accepted for different message")
	}
}

// Property: any single-bit flip in the message must change the tag.
func TestTagBitFlipSensitivity(t *testing.T) {
	f := func(msg []byte, pos uint16) bool {
		if len(msg) == 0 {
			return true
		}
		key := []byte("bitflip")
		orig := Tag(key, msg)
		i := int(pos) % len(msg)
		msg[i] ^= 0x01
		return Tag(key, msg) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesMonotone(t *testing.T) {
	prev := uint64(0)
	for n := 0; n <= 8192; n += 64 {
		c := Cycles(n)
		if c < prev {
			t.Fatalf("Cycles not monotone at n=%d", n)
		}
		prev = c
	}
	// 4KB chunk: 1 ipad + 65 msg blocks + 2 outer = 68 blocks.
	if got, want := Cycles(4096), uint64(68*68); got != want {
		t.Errorf("Cycles(4096) = %d, want %d", got, want)
	}
}
