package shield

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
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

// FuzzOpenRegionData flips bytes of a region image sealed into device
// memory, two split grains long (so the open splits across Ps wherever
// there are two), and checks the whole-image oracle: OpenRegions returns
// the exact plaintext if no byte changed, and otherwise no plaintext and
// an IntegrityError for the lowest chunk whose ciphertext or tag changed.
// flips is read as 5-byte records: a big-endian offset into the
// ciphertext followed by the tags, and the byte to XOR there.
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
		sealed := []RegionImage{{Config: cfg, Layout: RegionLayout{RegionID: 5}, Plain: plain}}
		dram := layOut(sealed)
		if err := SealRegions(dek, dram, sealed); err != nil {
			f.Fatal(err)
		}
		ct, tags := sealedBytes(f, dram, sealed[0].Layout)
		imgs = append(imgs, image{cfg, plain, ct, tags})
	}
	f.Fuzz(func(t *testing.T, flips []byte) {
		for _, img := range imgs {
			opened := []RegionImage{{Config: img.cfg, Layout: RegionLayout{RegionID: 5}}}
			dram := layOut(opened)
			l := opened[0].Layout
			if err := dram.RawWrite(l.DataBase, img.ct); err != nil {
				t.Fatal(err)
			}
			if err := dram.RawWrite(l.TagBase, img.tags); err != nil {
				t.Fatal(err)
			}
			for r := flips; len(r) >= 5; r = r[5:] {
				off := uint64(binary.BigEndian.Uint32(r) % uint32(len(img.ct)+len(img.tags)))
				if off < l.DataSize {
					flipByte(t, dram, l.DataBase+off, r[4])
				} else {
					flipByte(t, dram, l.TagBase+off-l.DataSize, r[4])
				}
			}
			ct, tags := sealedBytes(t, dram, l)
			want := -1
			cs := img.cfg.ChunkSize
			for c := 0; c < img.cfg.Chunks() && want < 0; c++ {
				if !bytes.Equal(ct[c*cs:(c+1)*cs], img.ct[c*cs:(c+1)*cs]) ||
					!bytes.Equal(tags[c*TagSize:(c+1)*TagSize], img.tags[c*TagSize:(c+1)*TagSize]) {
					want = c
				}
			}
			err := OpenRegions(dek, dram, opened)
			got := opened[0].Plain
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

// fuzzLoadKeyPriv is FuzzProvisionLoadKey's Shield Encryption Key, fixed
// so the wraps in its seed corpus stay valid Load Keys, and
// fuzzLoadKeyDEK is the genuine Data Encryption Key they carry.
var (
	fuzzLoadKeyPriv = schnorr.KeyFromSeed(modp.TestGroup, []byte("shef/fuzz-provision-load-key"))
	fuzzLoadKeyDEK  = bytes.Repeat([]byte{0x6B}, 32)
)

// FuzzProvisionLoadKey hands a provisioned Shield arbitrary host-relayed
// Load Keys, the (Ephemeral, Sealed) pair of a keywrap.Wrapped. The
// Shield's one region holds an image the Data Owner sealed under the
// genuine DEK. The oracle: either the Load Key is rejected and the session
// it found survives, so the image still reads back through it, or the Load
// Key carried the genuine DEK, so the image reads back through the new
// session. Nothing panics. The seed corpus holds a genuine wrap, flipped
// and truncated ones, the ephemeral values 0, 1 and P-1 and a wrapped
// 8-byte DEK, which the Shield refuses as too short.
func FuzzProvisionLoadKey(f *testing.F) {
	genuine, err := keywrap.Wrap(&fuzzLoadKeyPriv.PublicKey, fuzzLoadKeyDEK, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine.Ephemeral, genuine.Sealed)

	rc := RegionConfig{
		Name: "fuzz-key", Size: 16 * 512, ChunkSize: 512,
		AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: HMAC, BufferBytes: 2 * 512, Freshness: true,
	}
	dram := mem.NewDRAM(1<<20, perf.Default())
	sh, err := New(Config{Regions: []RegionConfig{rc}, Registers: 4}, fuzzLoadKeyPriv, dram, mem.NewOCM(1<<24), perf.Default())
	if err != nil {
		f.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(genuine); err != nil {
		f.Fatal(err)
	}
	img := make([]byte, rc.Size)
	for i := range img {
		img[i] = byte(i * 7)
	}
	preload(f, sh, dram, fuzzLoadKeyDEK, rc.Name, img)
	buf := make([]byte, rc.Size)

	f.Fuzz(func(t *testing.T, ephemeral, sealed []byte) {
		loadErr := sh.ProvisionLoadKey(&keywrap.Wrapped{Ephemeral: ephemeral, Sealed: sealed})
		if loadErr == nil {
			// A new session starts with no valid bits: the owner's image
			// opens only if the new session runs under the genuine DEK.
			if err := sh.MarkPreloaded(rc.Name); err != nil {
				t.Fatalf("accepted Load Key left no %q region: %v", rc.Name, err)
			}
		}
		sh.InvalidateClean()
		clear(buf)
		if _, err := sh.ReadStream(0, buf); err != nil || !bytes.Equal(buf, img) {
			t.Fatalf("Load Key (ephemeral %d bytes, sealed %d bytes; load error %v): the image does not read back: %v, equal = %t",
				len(ephemeral), len(sealed), loadErr, err, bytes.Equal(buf, img))
		}
	})
}
