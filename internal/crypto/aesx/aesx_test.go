package aesx

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustCipher(t testing.TB, key []byte) cipher.Block {
	t.Helper()
	c, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FIPS-197 Appendix C known-answer tests through crypto/aes, the block
// cipher every CTR and PMAC pass in the repository runs on.
func TestFIPS197Vectors(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{
			"000102030405060708090a0b0c0d0e0f",
			"00112233445566778899aabbccddeeff",
			"69c4e0d86a7b0430d8cdb78070b4c55a",
		},
		{
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"00112233445566778899aabbccddeeff",
			"8ea2b7ca516745bfeafc49904b496089",
		},
	}
	for _, c := range cases {
		got := make([]byte, BlockSize)
		mustCipher(t, mustHex(t, c.key)).Encrypt(got, mustHex(t, c.pt))
		if hex.EncodeToString(got) != c.ct {
			t.Errorf("key %s: got %x want %s", c.key, got, c.ct)
		}
	}
}

// TestInvalidKeyLength checks the engine model accepts only the two key
// sizes the Shield's bitstream can be compiled with.
func TestInvalidKeyLength(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 24, 33} {
		if _, err := NewEngine(make([]byte, n), SBox4x); err == nil {
			t.Errorf("NewEngine accepted %d-byte key", n)
		}
	}
}

func TestCTRRoundTrip(t *testing.T) {
	f := func(key [16]byte, iv [IVSize]byte, msg []byte) bool {
		c := mustCipher(t, key[:])
		ct := make([]byte, len(msg))
		CTR(c, iv, ct, msg)
		pt := make([]byte, len(ct))
		CTR(c, iv, pt, ct)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// stdCTR is the reference keystream: crypto/cipher's CTR over the counter
// block IV || 0x00000000.
func stdCTR(c cipher.Block, iv [IVSize]byte, msg []byte) []byte {
	var ctrBlock [BlockSize]byte
	copy(ctrBlock[:], iv[:])
	out := make([]byte, len(msg))
	cipher.NewCTR(c, ctrBlock[:]).XORKeyStream(out, msg)
	return out
}

// TestCTRAgainstStdlib checks CTR and CTRStream against cipher.NewCTR
// with the same initial counter block, out of place and in place, on
// every length up to a few blocks past one chunk so each ragged tail
// position is covered, and on random inputs for both key sizes.
func TestCTRAgainstStdlib(t *testing.T) {
	c := mustCipher(t, mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	iv := ChunkIV(7, 3, 1)
	var st CTRStream
	for n := 0; n <= 512+3*BlockSize; n++ {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*31 + n)
		}
		want := stdCTR(c, iv, msg)
		got := make([]byte, n)
		CTR(c, iv, got, msg)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: CTR diverges from cipher.NewCTR", n)
		}
		st.XORKeyStream(c, iv, got, msg)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d: CTRStream diverges from cipher.NewCTR", n)
		}
		inPlace := append([]byte(nil), msg...)
		st.XORKeyStream(c, iv, inPlace, inPlace)
		if !bytes.Equal(inPlace, want) {
			t.Fatalf("len %d: in-place CTRStream diverges from cipher.NewCTR", n)
		}
	}
	f := func(key [32]byte, iv [IVSize]byte, msg []byte) bool {
		for _, k := range [][]byte{key[:16], key[:]} {
			c := mustCipher(t, k)
			got := make([]byte, len(msg))
			CTR(c, iv, got, msg)
			if !bytes.Equal(got, stdCTR(c, iv, msg)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCTRInPlace(t *testing.T) {
	c := mustCipher(t, make([]byte, 16))
	msg := []byte("in-place CTR must work because the Shield reuses buffers")
	orig := append([]byte(nil), msg...)
	var iv [IVSize]byte
	CTR(c, iv, msg, msg)
	if bytes.Equal(msg, orig) {
		t.Fatal("CTR did not change data")
	}
	CTR(c, iv, msg, msg)
	if !bytes.Equal(msg, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestChunkIVDistinct(t *testing.T) {
	seen := map[[IVSize]byte]bool{}
	for region := uint32(0); region < 4; region++ {
		for chunk := uint32(0); chunk < 8; chunk++ {
			for ver := uint32(0); ver < 4; ver++ {
				iv := ChunkIV(region, chunk, ver)
				if seen[iv] {
					t.Fatalf("duplicate IV for region=%d chunk=%d ver=%d", region, chunk, ver)
				}
				seen[iv] = true
			}
		}
	}
}

func TestEngineCycleModel(t *testing.T) {
	key := make([]byte, 16)
	e4, err := NewEngine(key, SBox4x)
	if err != nil {
		t.Fatal(err)
	}
	e16, _ := NewEngine(key, SBox16x)
	// AES-128: 10 rounds. 4x: (16/4)*10 = 40 cycles; 16x: 1*10 = 10.
	if got := e4.CyclesPerBlock(); got != 40 {
		t.Errorf("AES-128/4x cycles per block = %d, want 40", got)
	}
	if got := e16.CyclesPerBlock(); got != 10 {
		t.Errorf("AES-128/16x cycles per block = %d, want 10", got)
	}
	key256 := make([]byte, 32)
	e256, _ := NewEngine(key256, SBox16x)
	if got := e256.CyclesPerBlock(); got != 14 {
		t.Errorf("AES-256/16x cycles per block = %d, want 14", got)
	}
	// More parallelism must never be slower.
	if e16.BytesPerCycle() <= e4.BytesPerCycle() {
		t.Error("16x engine not faster than 4x engine")
	}
	if got := e4.Cycles(17); got != 2*40 {
		t.Errorf("Cycles(17) = %d, want 80 (2 blocks)", got)
	}
}

func TestNewEngineRejectsBadParallelism(t *testing.T) {
	if _, err := NewEngine(make([]byte, 16), SBoxParallelism(3)); err == nil {
		t.Fatal("accepted 3x S-box parallelism")
	}
	if _, err := NewEngine(make([]byte, 11), SBox4x); err == nil {
		t.Fatal("accepted bad key through NewEngine")
	}
}

func BenchmarkCTR4K(b *testing.B) {
	c := mustCipher(b, make([]byte, 16))
	buf := make([]byte, 4096)
	var iv [IVSize]byte
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		CTR(c, iv, buf, buf)
	}
}

// TestCTRStreamMatchesCTR checks the reusable-state stream path against
// the one-shot CTR across consecutive chunk IVs, as the Shield's window
// pipeline drives it.
func TestCTRStreamMatchesCTR(t *testing.T) {
	c := mustCipher(t, bytes.Repeat([]byte{0x3C}, 16))
	var st CTRStream
	src := make([]byte, 1000)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for chunk := uint32(0); chunk < 8; chunk++ {
		iv := ChunkIV(3, chunk, chunk%2)
		want := make([]byte, len(src))
		got := make([]byte, len(src))
		CTR(c, iv, want, src)
		st.XORKeyStream(c, iv, got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: stream state diverged from one-shot CTR", chunk)
		}
	}
}
