package shield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/crypto/aesx"
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
	return RegionImage{Config: cfg, ID: uint32(10 + i), Plain: plain}
}

// ownerSizes straddle splitGrainBytes and twice it, the least one region
// split over two workers.
var ownerSizes = []int{
	splitGrainBytes / 4, splitGrainBytes - 4096, splitGrainBytes, splitGrainBytes + 4096,
	2*splitGrainBytes - 4096, 2 * splitGrainBytes, 3 * splitGrainBytes,
}

// TestSealRegionsMatchesPerRegion: sealing random region sets in one
// split gives each region the ciphertext and tags of its own
// SealRegionData call, and opening them in one split gives the
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
				if err := SealRegions(dek, got); err != nil {
					t.Fatal(err)
				}
				for i, im := range imgs {
					ct, tags, err := SealRegionData(im.Config, im.ID, dek, im.Plain)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[i].CT, ct) || !bytes.Equal(got[i].Tags, tags) {
						t.Errorf("trial %d at GOMAXPROCS=%d: region %d of %d (%d bytes) seals differently alone",
							trial, procs, i, len(imgs), im.Config.Size)
					}
					got[i].Plain = nil
				}
				if err := OpenRegions(dek, got); err != nil {
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
// chunks, each chunk at its own epoch, and returns them ready to open:
// 64, 768, 128 and 256 chunks, so that at two and four Ps a later
// region's chunks sit in other workers' pieces than an earlier region's.
func tamperedRegions(t *testing.T, dek []byte) []RegionImage {
	t.Helper()
	var imgs []RegionImage
	for i, size := range []int{splitGrainBytes / 2, 6 * splitGrainBytes, splitGrainBytes, 2 * splitGrainBytes} {
		cfg := splitRegion([]MACKind{HMAC, PMAC}[i%2])
		cfg.Name, cfg.Size = fmt.Sprintf("tamper%d", i), uint64(size)
		img, counters := splitImage(cfg)
		s, err := newSealer(cfg, uint32(20+i), dek)
		if err != nil {
			t.Fatal(err)
		}
		ct, tags := make([]byte, size), make([]byte, cfg.Chunks()*TagSize)
		sc, cs := s.newScratch(), cfg.ChunkSize
		for c := range counters {
			s.sealChunkWith(sc, ct[c*cs:(c+1)*cs], tags[c*TagSize:(c+1)*TagSize], c, counters[c], img[c*cs:(c+1)*cs])
		}
		imgs = append(imgs, RegionImage{Config: cfg, ID: uint32(20 + i), CT: ct, Tags: tags, Counters: counters})
	}
	return imgs
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
		imgs := tamperedRegions(t, dek)
		for _, fl := range tc.flips {
			im := &imgs[fl.region]
			if fl.tag {
				im.Tags[fl.chunk*TagSize+3] ^= 0x40
			} else {
				im.CT[fl.chunk*im.Config.ChunkSize+17] ^= 0x01
			}
		}
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				name := fmt.Sprintf("GOMAXPROCS=%d %d flips from %v", procs, len(tc.flips), tc.flips[:min(4, len(tc.flips))])
				err := OpenRegions(dek, imgs)
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
	bad := tamperedRegions(t, dek)
	bad[2].CT[5] ^= 1
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 4} {
		for _, step := range []struct {
			name string
			op   func() error
		}{
			{"seal", func() error { return SealRegions(dek, imgs) }},
			{"open", func() error { return OpenRegions(dek, imgs) }},
			{"tampered open", func() error {
				if OpenRegions(dek, bad) == nil {
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
