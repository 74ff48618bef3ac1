package shield

import (
	"bytes"
	"encoding/hex"
	"testing"

	"shef/internal/crypto/aesx"
)

// The golden vectors pin the sealed chunk wire format: a fixed DEK, region,
// chunk index, write epoch and payload must seal to exactly these
// ciphertext and tag bytes. They were recorded from two independent AES
// and SHA-256 implementations that agreed on every byte, so any change to
// key derivation, IV layout, CTR keystream, MAC input framing or the MAC
// itself shows up here as a mismatch.
var goldenSeals = []struct {
	name    string
	mac     MACKind
	keySize aesx.KeySize
	chunk   int
	counter uint32
	ct, tag string
}{
	{
		name: "hmac-aes128", mac: HMAC, keySize: aesx.AES128, chunk: 5, counter: 3,
		ct:  "739cb8cf1389af28b4dc969893717cf4ec19ec580f74e134c569359b038dc698ff8a5ab9e581221f299587ba58897c8b7ea26f261e",
		tag: "0f65c9d820eaddc3846fc4dfb4eaef81",
	},
	{
		name: "pmac-aes256", mac: PMAC, keySize: aesx.AES256, chunk: 9, counter: 1,
		ct:  "0204a6254ca3b7fd10fd75b37a39bbb7445f241a7eb1f0a0c88c3afe806ffb2aa841391b5dd316268db5ffe08e8f4e542a93a04cea",
		tag: "dcb1a9f87f1531e00fd942ccc98fc42a",
	},
}

// goldenPayload is 53 bytes: three full AES blocks and a ragged tail.
func goldenPayload() []byte {
	p := make([]byte, 53)
	for i := range p {
		p[i] = byte(i*29 + 7)
	}
	return p
}

func goldenSealer(t *testing.T, mac MACKind, ks aesx.KeySize) *sealer {
	t.Helper()
	cfg := RegionConfig{
		Name: "golden", Base: 0, Size: 1 << 16, ChunkSize: 512,
		AESEngines: 2, SBox: aesx.SBox16x, KeySize: ks, MAC: mac,
		Freshness: true,
	}
	dek := make([]byte, 32)
	for i := range dek {
		dek[i] = byte(i)
	}
	s, err := newSealer(cfg, 7, dek)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSealerGoldenVectors(t *testing.T) {
	plain := goldenPayload()
	for _, g := range goldenSeals {
		s := goldenSealer(t, g.mac, g.keySize)
		ct, tag := s.sealChunk(g.chunk, g.counter, plain)
		if got := hex.EncodeToString(ct); got != g.ct {
			t.Errorf("%s: ciphertext %s, want %s", g.name, got, g.ct)
		}
		if got := hex.EncodeToString(tag[:]); got != g.tag {
			t.Errorf("%s: tag %s, want %s", g.name, got, g.tag)
		}
		back, err := s.openChunk(g.chunk, g.counter, ct, tag)
		if err != nil || !bytes.Equal(back, plain) {
			t.Errorf("%s: golden chunk does not open (err=%v)", g.name, err)
		}
	}
}
