package shield

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// TestParallelDistinctRegions drives the two regions of simpleConfig from
// separate goroutine pools at once — the paper's per-engine-set
// parallelism as real Go parallelism. Run under -race this is the primary
// data-path concurrency check for the Shield.
func TestParallelDistinctRegions(t *testing.T) {
	rig := newRig(t, simpleConfig())
	regions := rig.shield.Config().Regions
	const workers = 4
	const iters = 16
	var wg sync.WaitGroup
	errCh := make(chan error, 2*workers)
	for _, rc := range regions {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rc RegionConfig, w int) {
				defer wg.Done()
				// Each worker owns a disjoint chunk-aligned window.
				base := rc.Base + uint64(w*4*rc.ChunkSize)
				want := bytes.Repeat([]byte{byte(w + 1)}, 3*rc.ChunkSize)
				for i := 0; i < iters; i++ {
					if _, err := rig.shield.WriteBurst(base, want); err != nil {
						errCh <- fmt.Errorf("region %q worker %d: %v", rc.Name, w, err)
						return
					}
					got := make([]byte, len(want))
					if _, err := rig.shield.ReadBurst(base, got); err != nil {
						errCh <- fmt.Errorf("region %q worker %d: %v", rc.Name, w, err)
						return
					}
					if !bytes.Equal(got, want) {
						errCh <- fmt.Errorf("region %q worker %d: data corrupted", rc.Name, w)
						return
					}
				}
			}(rc, w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Everything written is still intact after a (parallel) flush and a
	// cold re-read through the integrity path.
	if err := rig.shield.Flush(); err != nil {
		t.Fatal(err)
	}
	rig.shield.InvalidateClean()
	for _, rc := range regions {
		for w := 0; w < workers; w++ {
			base := rc.Base + uint64(w*4*rc.ChunkSize)
			want := bytes.Repeat([]byte{byte(w + 1)}, 3*rc.ChunkSize)
			got := make([]byte, len(want))
			if _, err := rig.shield.ReadBurst(base, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("region %q worker %d window corrupted after flush", rc.Name, w)
			}
		}
	}
}

// TestBurstCyclesMeaningful: ReadBurst/WriteBurst report the engine-set
// busy time of the access instead of zero, and a cold miss costs more
// than a buffered hit.
func TestBurstCyclesMeaningful(t *testing.T) {
	rig := newRig(t, simpleConfig())
	data := make([]byte, 512)
	wc, err := rig.shield.WriteBurst(0, data)
	if err != nil {
		t.Fatal(err)
	}
	if wc == 0 {
		t.Fatal("WriteBurst reported zero cycles")
	}
	if err := rig.shield.Flush(); err != nil {
		t.Fatal(err)
	}
	rig.shield.InvalidateClean()
	missCycles, err := rig.shield.ReadBurst(0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	hitCycles, err := rig.shield.ReadBurst(0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if missCycles == 0 || hitCycles == 0 {
		t.Fatalf("zero cycle report: miss=%d hit=%d", missCycles, hitCycles)
	}
	if missCycles <= hitCycles {
		t.Fatalf("cold miss (%d cycles) not costlier than buffered hit (%d cycles)", missCycles, hitCycles)
	}
}

// TestConcurrentReportAndTraffic reads stats while the data path is busy:
// Report must be safe against in-flight bursts and against a region's
// retirement, which hands its stats to the next set.
func TestConcurrentReportAndTraffic(t *testing.T) {
	rig := newRig(t, simpleConfig())
	done := make(chan struct{})
	var wg wgWrap
	wg.Go(func() {
		defer close(done)
		buf := make([]byte, 2048)
		for i := 0; i < 64; i++ {
			if i%8 == 7 {
				if err := rig.shield.RetireRegion("data"); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := rig.shield.WriteBurst(0, buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := rig.shield.ReadBurst(0, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	wg.Go(func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			rep := rig.shield.Report()
			_ = rep.TotalCycles()
		}
	})
	wg.Wait()
	rep := rig.shield.Report()
	if rep.Regions[0].Hits == 0 {
		t.Fatal("no traffic accounted")
	}
}

// TestReprovisionReturnsOCM: key rotation replaces the engine sets; the
// cleared session's buffers/counters must give their on-chip budget back,
// or an OCM sized for one session exhausts after a few rotations.
func TestReprovisionReturnsOCM(t *testing.T) {
	dram := mem.NewDRAM(1<<22, perf.Default())
	// Enough for one simpleConfig session (~29k bits) but not two.
	ocm := mem.NewOCM(40_000)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(simpleConfig(), priv, dram, ocm, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	var used uint64
	for i := 0; i < 5; i++ {
		dek := bytes.Repeat([]byte{byte(0x10 + i)}, 32)
		lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.ProvisionLoadKey(lk); err != nil {
			t.Fatalf("rotation %d: %v (OCM leak across reprovisioning?)", i, err)
		}
		if i == 0 {
			used = ocm.UsedBits()
		} else if got := ocm.UsedBits(); got != used {
			t.Fatalf("rotation %d: OCM usage drifted from %d to %d bits", i, used, got)
		}
		// The fresh session must serve traffic.
		if _, err := sh.WriteBurst(0, make([]byte, 512)); err != nil {
			t.Fatalf("rotation %d: %v", i, err)
		}
	}

	// Concurrent rotations serialise on the provisioning lock; whoever
	// wins, exactly one session's budget stays allocated.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dek := bytes.Repeat([]byte{byte(0x80 + i)}, 32)
			lk, _ := keywrap.Wrap(sh.PublicKey(), dek, nil)
			if err := sh.ProvisionLoadKey(lk); err != nil {
				t.Errorf("concurrent rotation %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := ocm.UsedBits(); got != used {
		t.Fatalf("after concurrent rotations: OCM usage %d bits, want %d", got, used)
	}
	if _, err := sh.WriteBurst(0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
}

// wgWrap is a tiny WaitGroup helper (Go 1.24 has no wg.Go yet).
type wgWrap struct{ wg sync.WaitGroup }

func (w *wgWrap) Go(f func()) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		f()
	}()
}
func (w *wgWrap) Wait() { w.wg.Wait() }
