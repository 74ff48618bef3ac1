package shield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"shef/internal/axi"
	"shef/internal/perf"
)

// This file pins what a flush leaves behind when a store fails partway
// through it: which runs are written back, clean and valid, which runs
// are still dirty, where the freshness counters stand, and what the
// region's stats and busy cycles say. A flush moves its dirty chunks in
// sorted order, one window per contiguous run (capped at the write-back
// batch), and each window bumps its chunks' counters, then stores its
// ciphertext and then its tags. A failed store ends the flush at its
// window.

var errStoreFailed = errors.New("injected store failure")

// failingPort fails the failAt-th WriteBurst (1-based) it sees; zero
// disarms it.
type failingPort struct {
	axi.MemoryPort
	writes, failAt int
}

func (p *failingPort) WriteBurst(addr uint64, data []byte) (uint64, error) {
	p.writes++
	if p.failAt > 0 && p.writes == p.failAt {
		return 0, errStoreFailed
	}
	return p.MemoryPort.WriteBurst(addr, data)
}

// flushFailRuns are the dirty runs of the flush under test, in chunks.
// Each is one write-back window: the first run exceeds the 16-chunk
// batch, so it moves as two.
var flushFailRuns = [][2]int{{0, 16}, {16, 21}, {24, 25}, {30, 33}, {40, 41}, {50, 53}}

// dirtyRuns writes one full chunk of fresh bytes at each chunk of runs
// through the chunked path and returns the bytes written.
func dirtyRuns(t *testing.T, sh *Shield, runs [][2]int, seed int64) map[int][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	want := make(map[int][]byte)
	for _, r := range runs {
		for c := r[0]; c < r[1]; c++ {
			b := make([]byte, 512)
			rng.Read(b)
			if _, err := sh.WriteBurst(uint64(c*512), b); err != nil {
				t.Fatal(err)
			}
			want[c] = b
		}
	}
	return want
}

// TestFlushStoreFailureMidFlush fails the flush's k-th store, for a
// data store and a tag store of a lone run and of a batched run. The
// runs before the failing one are written back: clean, valid, counters
// bumped once, counted and charged exactly as a flush of those runs
// alone. The failing run has its counters bumped but stays dirty and
// invalid; the runs after it are untouched. A second flush after the
// port heals writes the rest back and every chunk reads back.
func TestFlushStoreFailureMidFlush(t *testing.T) {
	cfg := flushBenchConfig(64 * 512)
	for _, k := range []int{1, 5, 6, 7, 8, 12} {
		t.Run(fmt.Sprintf("store%d", k), func(t *testing.T) {
			failRun := (k - 1) / 2 // each window stores data, then tags

			// Reference: a clean flush of exactly the runs before the
			// failing one.
			ref, _, _ := newBatchRig(t, cfg, perf.Default())
			dirtyRuns(t, ref, flushFailRuns[:failRun], 7)
			ref.ResetStats()
			if err := ref.Flush(); err != nil {
				t.Fatal(err)
			}
			want := ref.Report().Regions[0]

			sh, rec, _ := newBatchRig(t, cfg, perf.Default())
			port := &failingPort{MemoryPort: rec.inner}
			rec.inner = port
			data := dirtyRuns(t, sh, flushFailRuns, 7)
			sh.ResetStats()
			port.failAt = k
			if err := sh.Flush(); !errors.Is(err, errStoreFailed) {
				t.Fatalf("flush returned %v, want the injected store failure", err)
			}
			if got := sh.Report().Regions[0]; got != want {
				t.Errorf("stats after the failure %+v\nwant %+v (a flush of the runs before it)", got, want)
			}

			set, err := sh.setFor(0)
			if err != nil {
				t.Fatal(err)
			}
			set.mu.Lock()
			for i, r := range flushFailRuns {
				wantCtr, wantClean := uint32(0), i < failRun
				if i <= failRun {
					wantCtr = 1
				}
				for c := r[0]; c < r[1]; c++ {
					ln := set.lines[c]
					if ln == nil || ln.dirty == wantClean {
						t.Errorf("run %d chunk %d: resident %v, dirty %v; want resident, dirty %v",
							i, c, ln != nil, ln != nil && ln.dirty, !wantClean)
					}
					if set.counters[c] != wantCtr {
						t.Errorf("run %d chunk %d: counter %d, want %d", i, c, set.counters[c], wantCtr)
					}
					if set.initialized[c] != wantClean {
						t.Errorf("run %d chunk %d: valid %v, want %v", i, c, set.initialized[c], wantClean)
					}
				}
			}
			set.mu.Unlock()

			port.failAt = 0
			if err := sh.Flush(); err != nil {
				t.Fatal(err)
			}
			sh.InvalidateClean()
			got := make([]byte, 512)
			for c, b := range data {
				if _, err := sh.ReadBurst(uint64(c*512), got); err != nil {
					t.Fatalf("chunk %d after the retried flush: %v", c, err)
				}
				if !bytes.Equal(got, b) {
					t.Fatalf("chunk %d reads back wrong bytes after the retried flush", c)
				}
			}
		})
	}
}
