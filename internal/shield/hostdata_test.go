package shield

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"shef/internal/crypto/aesx"
)

// TestPreloadPath exercises the full host input path: the Data Owner seals
// a region image, the (untrusted) host DMAs it into DRAM, the Shield is
// told the region is preloaded, and the accelerator reads plaintext.
func TestPreloadPath(t *testing.T) {
	rig := newRig(t, simpleConfig())
	cfg := rig.shield.Config().Regions[0]
	layout, err := rig.shield.Layout("data")
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, cfg.Size)
	for i := range image {
		image[i] = byte(i * 7)
	}
	ct, tags, err := SealRegionData(cfg, layout.RegionID, rig.dek, image)
	if err != nil {
		t.Fatal(err)
	}
	// Host DMA (raw, untrusted path).
	rig.dram.RawWrite(layout.DataBase, ct)
	rig.dram.RawWrite(layout.TagBase, tags)
	if err := rig.shield.MarkPreloaded("data"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, cfg.Size)
	if _, err := rig.shield.ReadBurst(cfg.Base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, image) {
		t.Fatal("preloaded image did not decrypt correctly through the shield")
	}
}

// TestResultExportPath exercises the output direction: accelerator writes,
// Shield flushes, host DMAs ciphertext out, Data Owner opens it with the
// counter snapshot.
func TestResultExportPath(t *testing.T) {
	rig := newRig(t, simpleConfig())
	cfg := rig.shield.Config().Regions[0] // freshness-protected region
	layout, _ := rig.shield.Layout("data")

	result := bytes.Repeat([]byte("RESULT42"), int(cfg.Size)/8)
	if _, err := rig.shield.WriteBurst(cfg.Base, result); err != nil {
		t.Fatal(err)
	}
	if err := rig.shield.Flush(); err != nil {
		t.Fatal(err)
	}
	ct, _ := rig.dram.RawRead(layout.DataBase, int(layout.DataSize))
	tags, _ := rig.dram.RawRead(layout.TagBase, int(layout.TagSize))

	snap, err := rig.shield.CounterSnapshot("data")
	if err != nil {
		t.Fatal(err)
	}
	if !rig.shield.Registers().VerifyCounterSnapshot(snap) {
		t.Fatal("authentic counter snapshot rejected")
	}
	forged := snap
	forged.Counters = append([]uint32(nil), snap.Counters...)
	forged.Counters[0]++
	if rig.shield.Registers().VerifyCounterSnapshot(forged) {
		t.Fatal("forged counter snapshot accepted")
	}

	got, err := OpenRegionData(cfg, layout.RegionID, rig.dek, ct, tags, snap.Counters)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, result) {
		t.Fatal("exported result did not decrypt on the data owner side")
	}
}

func TestOpenRegionDataDetectsTamper(t *testing.T) {
	cfg := simpleConfig().Regions[1] // non-fresh region: nil counters
	dek := bytes.Repeat([]byte{9}, 32)
	image := make([]byte, cfg.Size)
	ct, tags, err := SealRegionData(cfg, 2, dek, image)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegionData(cfg, 2, dek, ct, tags, nil); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	ct[0] ^= 1
	if _, err := OpenRegionData(cfg, 2, dek, ct, tags, nil); err == nil {
		t.Fatal("tampered export accepted")
	}
}

func TestSealRegionDataSizeChecks(t *testing.T) {
	cfg := simpleConfig().Regions[0]
	dek := bytes.Repeat([]byte{9}, 32)
	if _, _, err := SealRegionData(cfg, 1, dek, make([]byte, 10)); err == nil {
		t.Fatal("short image accepted")
	}
	if _, err := OpenRegionData(cfg, 1, dek, make([]byte, cfg.Size), nil, nil); err == nil {
		t.Fatal("missing tags accepted")
	}
	if _, err := OpenRegionData(cfg, 1, dek, make([]byte, cfg.Size), make([]byte, cfg.Chunks()*TagSize), make([]uint32, 1)); err == nil {
		t.Fatal("short counter array accepted")
	}
}

func TestLayoutUnknownRegion(t *testing.T) {
	rig := newRig(t, simpleConfig())
	if _, err := rig.shield.Layout("nope"); err == nil {
		t.Fatal("unknown region layout served")
	}
	if err := rig.shield.MarkPreloaded("nope"); err == nil {
		t.Fatal("unknown region preload accepted")
	}
	if _, err := rig.shield.CounterSnapshot("nope"); err == nil {
		t.Fatal("unknown region snapshot served")
	}
}

// splitRegion is a freshness-protected region eight split grains long
// (1024 chunks of 512 bytes): the owner-side seal and open give each of
// up to eight Ps a range of it.
func splitRegion(mac MACKind) RegionConfig {
	return RegionConfig{
		Name: "owner-split", Size: 8 * splitGrainBytes, ChunkSize: 512,
		AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: mac, Freshness: true,
	}
}

// splitImage is splitRegion's test image and per-chunk write epochs.
func splitImage(cfg RegionConfig) ([]byte, []uint32) {
	img := make([]byte, cfg.Size)
	for i := range img {
		img[i] = byte(i*31 + i>>9)
	}
	counters := make([]uint32, cfg.Chunks())
	for c := range counters {
		counters[c] = uint32(c % 3)
	}
	return img, counters
}

// TestSealRegionDataSameAtAnyProcs: the owner-side seal gives the same
// ciphertext and tags whether it runs on one P or splits across several,
// and the image opens back at every width.
func TestSealRegionDataSameAtAnyProcs(t *testing.T) {
	dek := bytes.Repeat([]byte{0x5A}, 32)
	for _, mac := range []MACKind{HMAC, PMAC} {
		cfg := splitRegion(mac)
		img, _ := splitImage(cfg)
		var refCT, refTags []byte
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				ct, tags, err := SealRegionData(cfg, 7, dek, img)
				if err != nil {
					t.Fatal(err)
				}
				if refCT == nil {
					refCT, refTags = ct, tags
				} else if !bytes.Equal(ct, refCT) || !bytes.Equal(tags, refTags) {
					t.Errorf("%v at GOMAXPROCS=%d: sealed image differs from GOMAXPROCS=1", mac, procs)
				}
				got, err := OpenRegionData(cfg, 7, dek, ct, tags, nil)
				if err != nil || !bytes.Equal(got, img) {
					t.Errorf("%v at GOMAXPROCS=%d: open: err = %v, plaintext equal = %t", mac, procs, err, bytes.Equal(got, img))
				}
			}()
		}
	}
}

// TestOpenRegionDataLowestFailure: with tampered chunks in several
// workers' ranges, the owner-side open returns no plaintext and the
// IntegrityError of the lowest tampered chunk, whether it runs on one P
// or splits. At two Ps the ranges are chunks [0, 512) and [512, 1024); at
// four, 256 chunks each.
func TestOpenRegionDataLowestFailure(t *testing.T) {
	dek := bytes.Repeat([]byte{0x5A}, 32)
	type flip struct {
		chunk int
		tag   bool
	}
	for _, tc := range []struct {
		flips []flip
		want  int
	}{
		{[]flip{{900, false}, {600, false}, {300, false}, {100, false}}, 100},
		{[]flip{{900, false}, {300, true}}, 300},
		{[]flip{{900, false}}, 900},
		{[]flip{{600, true}, {520, false}}, 520},
		{[]flip{{1023, true}, {511, true}}, 511},
	} {
		for _, mac := range []MACKind{HMAC, PMAC} {
			cfg := splitRegion(mac)
			img, counters := splitImage(cfg)
			s, err := newSealer(cfg, 7, dek)
			if err != nil {
				t.Fatal(err)
			}
			// Seal each chunk at its own epoch, as a Shield's flushes leave
			// a freshness-protected region.
			ct, tags := make([]byte, cfg.Size), make([]byte, cfg.Chunks()*TagSize)
			sc, cs := s.newScratch(), cfg.ChunkSize
			for c := range counters {
				s.sealChunkWith(sc, ct[c*cs:(c+1)*cs], tags[c*TagSize:(c+1)*TagSize], c, counters[c], img[c*cs:(c+1)*cs])
			}
			for _, fl := range tc.flips {
				if fl.tag {
					tags[fl.chunk*TagSize+3] ^= 0x40
				} else {
					ct[fl.chunk*cs+17] ^= 0x01
				}
			}
			for _, procs := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v/GOMAXPROCS=%d/flips=%v", mac, procs, tc.flips)
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got, err := OpenRegionData(cfg, 7, dek, ct, tags, counters)
					var ie *IntegrityError
					if !errors.As(err, &ie) || ie.Chunk != tc.want || ie.Region != cfg.Name {
						t.Errorf("%s: err = %v, want an IntegrityError for chunk %d", name, err, tc.want)
					}
					if got != nil {
						t.Errorf("%s: returned %d bytes of plaintext with the error", name, len(got))
					}
				}()
			}
		}
	}
}
