package bitstream

import (
	"bytes"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/fpga"
	"shef/internal/shield"
)

func testManifest(t *testing.T) *Manifest {
	t.Helper()
	sk, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Manifest{
		Design:  "vecadd",
		Version: "1.2.0",
		Params:  map[string]string{"lanes": "4"},
		Shield: shield.Config{
			Regions: []shield.RegionConfig{{
				Name: "io", Base: 0, Size: 1 << 16, ChunkSize: 512,
				AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
				MAC: shield.HMAC, BufferBytes: 2048,
			}},
			Registers: 8,
		},
		ShieldPrivKey: sk.X.Bytes(),
		Resources:     fpga.Resources{LUT: 30000, REG: 20000, BRAM: 10},
	}
}

func key32() []byte { return bytes.Repeat([]byte{0x77}, 32) }

func TestCompileDecryptRoundTrip(t *testing.T) {
	m := testManifest(t)
	enc, err := Compile("vecadd-afi", m, key32())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(enc, key32())
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != m.Design || got.Version != m.Version {
		t.Fatal("manifest fields lost")
	}
	if got.Params["lanes"] != "4" {
		t.Fatal("params lost")
	}
	if len(got.Shield.Regions) != 1 || got.Shield.Regions[0].ChunkSize != 512 {
		t.Fatal("shield config lost")
	}
	if !bytes.Equal(got.ShieldPrivKey, m.ShieldPrivKey) {
		t.Fatal("shield key lost")
	}
}

func TestDecryptWrongKey(t *testing.T) {
	enc, _ := Compile("x", testManifest(t), key32())
	bad := bytes.Repeat([]byte{0x88}, 32)
	if _, err := Decrypt(enc, bad); err == nil {
		t.Fatal("decryption with wrong bitstream key succeeded")
	}
}

func TestBlobHidesDesign(t *testing.T) {
	m := testManifest(t)
	enc, _ := Compile("x", m, key32())
	if bytes.Contains(enc.Blob, []byte("vecadd")) {
		t.Fatal("design name visible in encrypted bitstream")
	}
	if bytes.Contains(enc.Blob, m.ShieldPrivKey) {
		t.Fatal("shield private key visible in encrypted bitstream")
	}
}

func TestTamperedBlobRejected(t *testing.T) {
	enc, _ := Compile("x", testManifest(t), key32())
	blob := enc.Blob
	for _, i := range []int{len(blob) / 2, len(blob) - 1} { // body, tag
		enc.Blob = append([]byte(nil), blob...)
		enc.Blob[i] ^= 1
		if _, err := Decrypt(enc, key32()); err == nil {
			t.Fatal("tampered bitstream accepted")
		}
	}
	enc.Blob = blob[:len(blob)-1]
	if _, err := Decrypt(enc, key32()); err == nil {
		t.Fatal("truncated bitstream accepted")
	}
}

func TestHashStableAndBinding(t *testing.T) {
	enc, _ := Compile("x", testManifest(t), key32())
	h1 := enc.Hash()
	h2 := enc.Hash()
	if h1 != h2 {
		t.Fatal("hash unstable")
	}
	renamed := *enc
	renamed.Name = "y"
	if renamed.Hash() == h1 {
		t.Fatal("hash does not bind the name")
	}
}

func TestCompileRejectsInvalidShieldConfig(t *testing.T) {
	m := testManifest(t)
	m.Shield.Regions[0].ChunkSize = 100 // not a multiple of the AES block
	if _, err := Compile("x", m, key32()); err == nil {
		t.Fatal("invalid shield config compiled")
	}
}

func TestManifestShieldKey(t *testing.T) {
	m := testManifest(t)
	key, err := m.ShieldKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("probe")
	if !schnorr.Verify(&key.PublicKey, msg, key.Sign(msg)) {
		t.Fatal("reconstructed shield key broken")
	}
	m.ShieldPrivKey = nil
	if _, err := m.ShieldKey(); err == nil {
		t.Fatal("empty shield key accepted")
	}
}
