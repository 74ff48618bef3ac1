package shield

import (
	"bytes"
	"errors"
	"testing"

	"shef/internal/crypto/aesx"
)

// fuzzSealers builds an HMAC and a PMAC sealer over a fixed region shape;
// the fuzzer varies chunk index, write counter, and payload.
func fuzzSealers(t testing.TB) []*sealer {
	cfg := RegionConfig{
		Name: "fuzz", Base: 0, Size: 1 << 16, ChunkSize: 512,
		AESEngines: 2, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		Freshness: true,
	}
	dek := bytes.Repeat([]byte{0x42}, 32)
	var out []*sealer
	for _, mac := range []MACKind{HMAC, PMAC} {
		c := cfg
		c.MAC = mac
		s, err := newSealer(c, 3, dek)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// FuzzSealOpenRoundtrip drives the chunk AEAD through arbitrary chunk
// indices, write epochs, and payloads: every seal must open back to the
// plaintext, and any single-byte corruption of ciphertext or tag must be
// rejected as an IntegrityError — for both MAC engines.
func FuzzSealOpenRoundtrip(f *testing.F) {
	f.Add(0, uint32(0), []byte("hello shield"), uint16(0))
	f.Add(127, uint32(1), make([]byte, 512), uint16(3))
	f.Add(1, uint32(0xFFFF_FFFF), []byte{0}, uint16(999))
	f.Add(63, uint32(7), bytes.Repeat([]byte{0xA5}, 129), uint16(42))
	sealers := fuzzSealers(f)
	f.Fuzz(func(t *testing.T, chunk int, counter uint32, data []byte, flip uint16) {
		if chunk < 0 {
			chunk = -(chunk + 1)
		}
		chunk %= 1 << 20
		if len(data) > 4096 {
			data = data[:4096]
		}
		for _, s := range sealers {
			ct, tag := s.sealChunk(chunk, counter, data)
			if len(ct) != len(data) {
				t.Fatalf("%v: ciphertext length %d, want %d", s.cfg.MAC, len(ct), len(data))
			}
			plain, err := s.openChunk(chunk, counter, ct, tag)
			if err != nil {
				t.Fatalf("%v: roundtrip rejected: %v", s.cfg.MAC, err)
			}
			if !bytes.Equal(plain, data) {
				t.Fatalf("%v: roundtrip mutated data", s.cfg.MAC)
			}
			// Corrupt one ciphertext byte (when there is one): must fail.
			if len(ct) > 0 {
				bad := append([]byte(nil), ct...)
				bad[int(flip)%len(bad)] ^= 1
				if _, err := s.openChunk(chunk, counter, bad, tag); !isIntegrity(err) {
					t.Fatalf("%v: corrupted ciphertext accepted (err=%v)", s.cfg.MAC, err)
				}
			}
			// Corrupt the tag: must fail.
			badTag := tag
			badTag[int(flip)%TagSize] ^= 1
			if _, err := s.openChunk(chunk, counter, ct, badTag); !isIntegrity(err) {
				t.Fatalf("%v: corrupted tag accepted (err=%v)", s.cfg.MAC, err)
			}
			// Splicing to a different chunk index or replaying an older
			// epoch must fail.
			if _, err := s.openChunk(chunk+1, counter, ct, tag); !isIntegrity(err) {
				t.Fatalf("%v: spliced chunk accepted (err=%v)", s.cfg.MAC, err)
			}
			if _, err := s.openChunk(chunk, counter+1, ct, tag); !isIntegrity(err) {
				t.Fatalf("%v: replayed epoch accepted (err=%v)", s.cfg.MAC, err)
			}
		}
	})
}

func isIntegrity(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}
