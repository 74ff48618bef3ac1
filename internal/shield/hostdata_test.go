package shield

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/mem"
)

// preload seals img as the Data Owner into sh's region through dram, the
// host's DMA, and marks the region preloaded.
func preload(tb testing.TB, sh *Shield, dram *mem.DRAM, dek []byte, region string, img []byte) {
	tb.Helper()
	layout, err := sh.Layout(region)
	if err != nil {
		tb.Fatal(err)
	}
	var rc RegionConfig
	for _, r := range sh.Config().Regions {
		if r.Name == region {
			rc = r
		}
	}
	if err := SealRegions(dek, dram, []RegionImage{{Config: rc, Layout: layout, Plain: img}}); err != nil {
		tb.Fatal(err)
	}
	if err := sh.MarkPreloaded(region); err != nil {
		tb.Fatal(err)
	}
}

// TestPreloadPath exercises the full host input path: the Data Owner seals
// a region image, the (untrusted) host DMAs it into DRAM, the Shield is
// told the region is preloaded, and the accelerator reads plaintext.
func TestPreloadPath(t *testing.T) {
	rig := newRig(t, simpleConfig())
	cfg := rig.shield.Config().Regions[0]
	image := make([]byte, cfg.Size)
	for i := range image {
		image[i] = byte(i * 7)
	}
	preload(t, rig.shield, rig.dram, rig.dek, "data", image)
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

	imgs := []RegionImage{{Config: cfg, Layout: layout, Counters: snap.Counters}}
	if err := OpenRegions(rig.dek, rig.dram, imgs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgs[0].Plain, result) {
		t.Fatal("exported result did not decrypt on the data owner side")
	}
}

func TestOpenRegionDataDetectsTamper(t *testing.T) {
	cfg := simpleConfig().Regions[1] // non-fresh region: nil counters
	dek := bytes.Repeat([]byte{9}, 32)
	imgs := []RegionImage{{Config: cfg, Layout: RegionLayout{RegionID: 2}, Plain: make([]byte, cfg.Size)}}
	dram := layOut(imgs)
	if err := SealRegions(dek, dram, imgs); err != nil {
		t.Fatal(err)
	}
	if err := OpenRegions(dek, dram, imgs); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	flipByte(t, dram, imgs[0].Layout.DataBase, 1)
	if err := OpenRegions(dek, dram, imgs); err == nil {
		t.Fatal("tampered export accepted")
	}
}

func TestSealRegionDataSizeChecks(t *testing.T) {
	cfg := simpleConfig().Regions[0]
	dek := bytes.Repeat([]byte{9}, 32)
	imgs := []RegionImage{{Config: cfg, Layout: RegionLayout{RegionID: 1}, Plain: make([]byte, 10)}}
	dram := layOut(imgs)
	if err := SealRegions(dek, dram, imgs); err == nil {
		t.Fatal("short image accepted")
	}
	noTags := imgs[0]
	noTags.Layout.TagSize = 0
	if err := OpenRegions(dek, dram, []RegionImage{noTags}); err == nil {
		t.Fatal("missing tags accepted")
	}
	short := imgs[0]
	short.Counters = make([]uint32, 1)
	if err := OpenRegions(dek, dram, []RegionImage{short}); err == nil {
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

// TestSealRegionsSameAtAnyProcs: the owner-side seal of one region
// writes the same ciphertext and tags to device memory whether it runs on
// one P or splits across several, and the image opens back at every
// width.
func TestSealRegionsSameAtAnyProcs(t *testing.T) {
	dek := bytes.Repeat([]byte{0x5A}, 32)
	for _, mac := range []MACKind{HMAC, PMAC} {
		cfg := splitRegion(mac)
		img, _ := splitImage(cfg)
		var refCT, refTags []byte
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				imgs := []RegionImage{{Config: cfg, Layout: RegionLayout{RegionID: 7}, Plain: img}}
				dram := layOut(imgs)
				if err := SealRegions(dek, dram, imgs); err != nil {
					t.Fatal(err)
				}
				ct, tags := sealedBytes(t, dram, imgs[0].Layout)
				if refCT == nil {
					refCT, refTags = ct, tags
				} else if !bytes.Equal(ct, refCT) || !bytes.Equal(tags, refTags) {
					t.Errorf("%v at GOMAXPROCS=%d: sealed image differs from GOMAXPROCS=1", mac, procs)
				}
				imgs[0].Plain = nil
				err := OpenRegions(dek, dram, imgs)
				if got := imgs[0].Plain; err != nil || !bytes.Equal(got, img) {
					t.Errorf("%v at GOMAXPROCS=%d: open: err = %v, plaintext equal = %t", mac, procs, err, bytes.Equal(got, img))
				}
			}()
		}
	}
}

// TestOpenRegionsLowestFailure: with tampered chunks of one region in
// several workers' pieces, the owner-side open returns no plaintext and
// the IntegrityError of the lowest tampered chunk, whether it runs on one
// P or splits. The workers claim ascending pieces of 64 chunks at two Ps
// and 32 at four.
func TestOpenRegionsLowestFailure(t *testing.T) {
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
			// Seal each chunk at its own epoch, as a Shield's flushes leave
			// a freshness-protected region.
			imgs := []RegionImage{{Config: cfg, Layout: RegionLayout{RegionID: 7}, Counters: counters}}
			dram := layOut(imgs)
			sealAtEpochs(t, dek, dram, imgs[0], img)
			for _, fl := range tc.flips {
				if fl.tag {
					flipByte(t, dram, imgs[0].Layout.TagBase+uint64(fl.chunk*TagSize+3), 0x40)
				} else {
					flipByte(t, dram, imgs[0].Layout.DataBase+uint64(fl.chunk*cfg.ChunkSize+17), 0x01)
				}
			}
			for _, procs := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v/GOMAXPROCS=%d/flips=%v", mac, procs, tc.flips)
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					err := OpenRegions(dek, dram, imgs)
					var ie *IntegrityError
					if !errors.As(err, &ie) || ie.Chunk != tc.want || ie.Region != cfg.Name {
						t.Errorf("%s: err = %v, want an IntegrityError for chunk %d", name, err, tc.want)
					}
					if got := imgs[0].Plain; got != nil {
						t.Errorf("%s: returned %d bytes of plaintext with the error", name, len(got))
					}
				}()
			}
		}
	}
}
