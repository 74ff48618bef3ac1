package shield

import (
	"bytes"
	"encoding/binary"
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
			sc := s.newScratch()
			open := func(chunk int, counter uint32, ct, tag []byte) error {
				return s.openChunkWith(sc, make([]byte, len(ct)), chunk, counter, ct, tag)
			}
			ct, tag := make([]byte, len(data)), make([]byte, TagSize)
			s.sealChunkWith(sc, ct, tag, chunk, counter, data)
			plain := make([]byte, len(ct))
			if err := s.openChunkWith(sc, plain, chunk, counter, ct, tag); err != nil {
				t.Fatalf("%v: roundtrip rejected: %v", s.cfg.MAC, err)
			}
			if !bytes.Equal(plain, data) {
				t.Fatalf("%v: roundtrip mutated data", s.cfg.MAC)
			}
			// Corrupt one ciphertext byte (when there is one): must fail.
			if len(ct) > 0 {
				bad := append([]byte(nil), ct...)
				bad[int(flip)%len(bad)] ^= 1
				if err := open(chunk, counter, bad, tag); !isIntegrity(err) {
					t.Fatalf("%v: corrupted ciphertext accepted (err=%v)", s.cfg.MAC, err)
				}
			}
			// Corrupt the tag: must fail.
			badTag := append([]byte(nil), tag...)
			badTag[int(flip)%TagSize] ^= 1
			if err := open(chunk, counter, ct, badTag); !isIntegrity(err) {
				t.Fatalf("%v: corrupted tag accepted (err=%v)", s.cfg.MAC, err)
			}
			// Splicing to a different chunk index or replaying an older
			// epoch must fail.
			if err := open(chunk+1, counter, ct, tag); !isIntegrity(err) {
				t.Fatalf("%v: spliced chunk accepted (err=%v)", s.cfg.MAC, err)
			}
			if err := open(chunk, counter+1, ct, tag); !isIntegrity(err) {
				t.Fatalf("%v: replayed epoch accepted (err=%v)", s.cfg.MAC, err)
			}
		}
	})
}

func isIntegrity(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}

// FuzzOpenRegionData flips bytes of a sealed region image two split grains
// long (so the open splits across Ps wherever there are two) and checks
// the whole-image oracle: OpenRegionData returns the exact plaintext if
// no byte changed, and otherwise no plaintext and an IntegrityError for
// the lowest chunk whose ciphertext or tag changed. flips is read as
// 5-byte records: a big-endian offset into the ciphertext followed by the
// tags, and the byte to XOR there.
func FuzzOpenRegionData(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0x80})
	f.Add([]byte{0, 1, 0xF0, 0, 1, 0, 0, 2, 0, 4})
	f.Add([]byte{0, 2, 0, 7, 1, 0, 2, 0, 7, 1})
	type image struct {
		cfg             RegionConfig
		plain, ct, tags []byte
	}
	dek := bytes.Repeat([]byte{0x42}, 32)
	var imgs []image
	for _, mac := range []MACKind{HMAC, PMAC} {
		cfg := RegionConfig{
			Name: "fuzz-open", Size: 2 * splitGrainBytes, ChunkSize: 512,
			AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128, MAC: mac,
		}
		plain := make([]byte, cfg.Size)
		for i := range plain {
			plain[i] = byte(i * 131)
		}
		ct, tags, err := SealRegionData(cfg, 5, dek, plain)
		if err != nil {
			f.Fatal(err)
		}
		imgs = append(imgs, image{cfg, plain, ct, tags})
	}
	f.Fuzz(func(t *testing.T, flips []byte) {
		for _, img := range imgs {
			ct := append([]byte(nil), img.ct...)
			tags := append([]byte(nil), img.tags...)
			for r := flips; len(r) >= 5; r = r[5:] {
				off := int(binary.BigEndian.Uint32(r) % uint32(len(ct)+len(tags)))
				if off < len(ct) {
					ct[off] ^= r[4]
				} else {
					tags[off-len(ct)] ^= r[4]
				}
			}
			want := -1
			cs := img.cfg.ChunkSize
			for c := 0; c < img.cfg.Chunks() && want < 0; c++ {
				if !bytes.Equal(ct[c*cs:(c+1)*cs], img.ct[c*cs:(c+1)*cs]) ||
					!bytes.Equal(tags[c*TagSize:(c+1)*TagSize], img.tags[c*TagSize:(c+1)*TagSize]) {
					want = c
				}
			}
			got, err := OpenRegionData(img.cfg, 5, dek, ct, tags, nil)
			if want < 0 {
				if err != nil || !bytes.Equal(got, img.plain) {
					t.Fatalf("%v: untouched image: err = %v, plaintext equal = %t", img.cfg.MAC, err, bytes.Equal(got, img.plain))
				}
				continue
			}
			var ie *IntegrityError
			if !errors.As(err, &ie) || ie.Chunk != want || got != nil {
				t.Fatalf("%v: first changed chunk %d: err = %v, plaintext nil = %t", img.cfg.MAC, want, err, got == nil)
			}
		}
	})
}
