package shield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/mem"
	"shef/internal/perf"
)

// ownerRegion is a Data Owner region image of size bytes with its own
// chunk size and MAC, holding rng's bytes as plaintext.
func ownerRegion(rng *rand.Rand, i, size int) RegionImage {
	cfg := RegionConfig{
		Name: fmt.Sprintf("owner%d", i), Size: uint64(size),
		ChunkSize:  []int{512, 1024, 4096}[rng.Intn(3)],
		AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: []MACKind{HMAC, PMAC}[rng.Intn(2)], Freshness: rng.Intn(2) == 0,
	}
	plain := make([]byte, size)
	rng.Read(plain)
	return RegionImage{Config: cfg, Layout: RegionLayout{RegionID: uint32(10 + i)}, Plain: plain}
}

// layOut places imgs end to end in a new device memory, each region's
// tag array right after its ciphertext, sets each image's layout there
// (keeping its region ID) and returns the memory.
func layOut(imgs []RegionImage) *mem.DRAM {
	var end uint64
	for i := range imgs {
		cfg, l := imgs[i].Config, &imgs[i].Layout
		l.DataBase, l.DataSize = end, cfg.Size
		l.TagBase, l.TagSize = end+cfg.Size, uint64(cfg.Chunks()*TagSize)
		end = l.TagBase + l.TagSize
	}
	return mem.NewDRAM(end, perf.Default())
}

// sealedBytes reads a region's ciphertext and tags out of dram.
func sealedBytes(t testing.TB, dram *mem.DRAM, l RegionLayout) (ct, tags []byte) {
	t.Helper()
	ct, err := dram.RawRead(l.DataBase, int(l.DataSize))
	if err != nil {
		t.Fatal(err)
	}
	tags, err = dram.RawRead(l.TagBase, int(l.TagSize))
	if err != nil {
		t.Fatal(err)
	}
	return ct, tags
}

// flipByte XORs x into the byte of dram at addr: a tamper by the host.
func flipByte(t testing.TB, dram *mem.DRAM, addr uint64, x byte) {
	t.Helper()
	b, err := dram.RawRead(addr, 1)
	if err == nil {
		err = dram.RawWrite(addr, []byte{b[0] ^ x})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// sealAtEpochs seals plain into dram at im's layout with each chunk at
// its own epoch from im.Counters, as a Shield's flushes leave a
// freshness-protected region.
func sealAtEpochs(t *testing.T, dek []byte, dram *mem.DRAM, im RegionImage, plain []byte) {
	t.Helper()
	rs, err := NewRegionSealer(im.Config, im.Layout.RegionID, dek)
	if err != nil {
		t.Fatal(err)
	}
	cs := im.Config.ChunkSize
	ct, tag := make([]byte, cs), make([]byte, TagSize)
	for c, ctr := range im.Counters {
		if err := rs.SealRange(c, ctr, ct, tag, plain[c*cs:(c+1)*cs]); err != nil {
			t.Fatal(err)
		}
		if err := dram.RawWrite(im.Layout.DataBase+uint64(c*cs), ct); err != nil {
			t.Fatal(err)
		}
		if err := dram.RawWrite(im.Layout.TagBase+uint64(c*TagSize), tag); err != nil {
			t.Fatal(err)
		}
	}
}

// ownerSizes straddle splitGrainBytes and twice it, the least one region
// split over two workers.
var ownerSizes = []int{
	splitGrainBytes / 4, splitGrainBytes - 4096, splitGrainBytes, splitGrainBytes + 4096,
	2*splitGrainBytes - 4096, 2 * splitGrainBytes, 3 * splitGrainBytes,
}

// TestSealRegionsMatchesPerRegion: sealing random region sets into
// device memory in one split gives each region the ciphertext and tags of
// its own SealRegions call, and opening them in one split gives the
// plaintext back, at one, two and four Ps.
func TestSealRegionsMatchesPerRegion(t *testing.T) {
	dek := bytes.Repeat([]byte{0x3C}, 32)
	rng := rand.New(rand.NewSource(40))
	for trial := range 8 {
		var imgs []RegionImage
		for i := range 1 + rng.Intn(8) {
			imgs = append(imgs, ownerRegion(rng, i, ownerSizes[rng.Intn(len(ownerSizes))]))
		}
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got := append([]RegionImage(nil), imgs...)
				dram := layOut(got)
				if err := SealRegions(dek, dram, got); err != nil {
					t.Fatal(err)
				}
				for i, im := range got {
					alone := []RegionImage{im}
					aloneDRAM := layOut(alone)
					if err := SealRegions(dek, aloneDRAM, alone); err != nil {
						t.Fatal(err)
					}
					ct, tags := sealedBytes(t, dram, im.Layout)
					wantCT, wantTags := sealedBytes(t, aloneDRAM, alone[0].Layout)
					if !bytes.Equal(ct, wantCT) || !bytes.Equal(tags, wantTags) {
						t.Errorf("trial %d at GOMAXPROCS=%d: region %d of %d (%d bytes) seals differently alone",
							trial, procs, i, len(imgs), im.Config.Size)
					}
					got[i].Plain = nil
				}
				if err := OpenRegions(dek, dram, got); err != nil {
					t.Fatalf("trial %d at GOMAXPROCS=%d: %v", trial, procs, err)
				}
				for i, im := range imgs {
					if !bytes.Equal(got[i].Plain, im.Plain) {
						t.Errorf("trial %d at GOMAXPROCS=%d: region %d opens to the wrong plaintext", trial, procs, i)
					}
				}
			}()
		}
	}
}

// tamperedRegions seals four freshness-protected regions of 512-byte
// chunks into a device memory, each chunk at its own epoch, and returns
// them ready to open with the memory: 64, 768, 128 and 256 chunks, so
// that at two and four Ps a later region's chunks sit in other workers'
// pieces than an earlier region's.
func tamperedRegions(t *testing.T, dek []byte) ([]RegionImage, *mem.DRAM) {
	t.Helper()
	var imgs []RegionImage
	var plain [][]byte
	for i, size := range []int{splitGrainBytes / 2, 6 * splitGrainBytes, splitGrainBytes, 2 * splitGrainBytes} {
		cfg := splitRegion([]MACKind{HMAC, PMAC}[i%2])
		cfg.Name, cfg.Size = fmt.Sprintf("tamper%d", i), uint64(size)
		img, counters := splitImage(cfg)
		imgs = append(imgs, RegionImage{Config: cfg, Layout: RegionLayout{RegionID: uint32(20 + i)}, Counters: counters})
		plain = append(plain, img)
	}
	dram := layOut(imgs)
	for i, im := range imgs {
		sealAtEpochs(t, dek, dram, im, plain[i])
	}
	return imgs, dram
}

// TestOpenRegionsFirstFailingRegion: with tampered chunks in several
// regions, opening them in one split returns the IntegrityError of the
// first tampered region in the caller's order, at its lowest tampered
// chunk, even where a later region's failure has a lower chunk index or
// is met first, and sets no plaintext, at one, two and four Ps.
func TestOpenRegionsFirstFailingRegion(t *testing.T) {
	dek := bytes.Repeat([]byte{0x3C}, 32)
	type flip struct {
		region, chunk int
		tag           bool
	}
	// Region 0's last chunk is the lowest failure, but a worker that
	// claims any piece after the first fails at once.
	late := []flip{{0, 63, false}}
	for r, chunks := range []int{64, 768, 128, 256} {
		for c := 0; r > 0 && c < chunks; c++ {
			late = append(late, flip{r, c, c%2 == 0})
		}
	}
	for _, tc := range []struct {
		flips  []flip
		region int
		chunk  int
	}{
		{late, 0, 63},
		{[]flip{{3, 0, false}, {1, 767, false}, {1, 100, false}}, 1, 100},
		{[]flip{{3, 5, true}, {2, 3, false}, {0, 63, false}}, 0, 63},
		{[]flip{{2, 0, false}, {1, 767, true}}, 1, 767},
		{[]flip{{3, 255, false}}, 3, 255},
		{[]flip{{1, 0, true}, {0, 1, false}, {0, 0, true}}, 0, 0},
		{[]flip{{2, 127, false}, {3, 0, false}, {1, 400, true}, {1, 700, false}}, 1, 400},
	} {
		imgs, dram := tamperedRegions(t, dek)
		for _, fl := range tc.flips {
			l := imgs[fl.region].Layout
			if fl.tag {
				flipByte(t, dram, l.TagBase+uint64(fl.chunk*TagSize+3), 0x40)
			} else {
				flipByte(t, dram, l.DataBase+uint64(fl.chunk*imgs[fl.region].Config.ChunkSize+17), 0x01)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				name := fmt.Sprintf("GOMAXPROCS=%d %d flips from %v", procs, len(tc.flips), tc.flips[:min(4, len(tc.flips))])
				err := OpenRegions(dek, dram, imgs)
				var ie *IntegrityError
				if !errors.As(err, &ie) || ie.Region != imgs[tc.region].Config.Name || ie.Chunk != tc.chunk {
					t.Errorf("%s: err = %v, want an IntegrityError for region %q chunk %d",
						name, err, imgs[tc.region].Config.Name, tc.chunk)
				}
				for i, im := range imgs {
					if im.Plain != nil {
						t.Errorf("%s: region %d has %d bytes of plaintext with the error", name, i, len(im.Plain))
					}
				}
			}()
		}
	}
}

// TestOwnerRegionsStartNoGoroutines: sealing and opening a region set,
// and opening it tampered, leaves the goroutine count where it was, at
// one P and after a split at four Ps.
func TestOwnerRegionsStartNoGoroutines(t *testing.T) {
	dek := bytes.Repeat([]byte{0x3C}, 32)
	rng := rand.New(rand.NewSource(41))
	var imgs []RegionImage
	for i, size := range ownerSizes {
		imgs = append(imgs, ownerRegion(rng, i, size))
	}
	dram := layOut(imgs)
	bad, badDRAM := tamperedRegions(t, dek)
	flipByte(t, badDRAM, bad[2].Layout.DataBase+5, 1)
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 4} {
		for _, step := range []struct {
			name string
			op   func() error
		}{
			{"seal", func() error { return SealRegions(dek, dram, imgs) }},
			{"open", func() error { return OpenRegions(dek, dram, imgs) }},
			{"tampered open", func() error {
				if OpenRegions(dek, badDRAM, bad) == nil {
					return errors.New("tampered image opened")
				}
				return nil
			}},
		} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if err := step.op(); err != nil {
					t.Fatalf("%s at GOMAXPROCS=%d: %v", step.name, procs, err)
				}
			}()
			if n := settledGoroutines(before); n > before {
				t.Fatalf("%s at GOMAXPROCS=%d: %d goroutines after, %d before", step.name, procs, n, before)
			}
		}
	}
}

// TestOwnerRegionsStageOneWindow: at one P the split hands its caller
// the whole range as one piece, yet sealing a region eight split grains
// long into device memory allocates well under the region's size, and
// opening it allocates little beyond the plaintext it returns, since a
// worker stages one window of ciphertext and tags at a time.
func TestOwnerRegionsStageOneWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dek := bytes.Repeat([]byte{0x3C}, 32)
	allocated := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, mac := range []MACKind{HMAC, PMAC} {
		cfg := splitRegion(mac)
		img, _ := splitImage(cfg)
		imgs := []RegionImage{{Config: cfg, Layout: RegionLayout{RegionID: 7}, Plain: img}}
		dram := layOut(imgs)
		// The first seal touches every page of the device memory.
		if err := SealRegions(dek, dram, imgs); err != nil {
			t.Fatal(err)
		}
		size := cfg.Size
		if got := allocated(func() error { return SealRegions(dek, dram, imgs) }); got > size/4 {
			t.Errorf("%v: sealing %d bytes allocated %d bytes, want at most %d", mac, size, got, size/4)
		}
		if got := allocated(func() error { return OpenRegions(dek, dram, imgs) }); got > size+size/4 {
			t.Errorf("%v: opening %d bytes allocated %d bytes, want at most %d", mac, size, got, size+size/4)
		}
	}
}
