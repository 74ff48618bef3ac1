package shield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/axi"
	"shef/internal/perf"
)

// splitFailCase is one batch large enough to split its seals across
// workers: a 1 MiB WriteStream, or a flush of 256 KiB of dirty lines.
// Every window is one contiguous run of streamWindowChunks chunks, so
// window w stores its data at store 2w+1 and its tags at store 2w+2.
type splitFailCase struct {
	name    string
	windows int
	// prep readies a fresh rig for a batch of the first n windows, and
	// move runs that batch.
	prep func(t *testing.T, sh *Shield, img []byte, n int)
	move func(sh *Shield, img []byte, n int) error
	// resident is the chunks the batch finds resident and dirty, and
	// supersedes whether a stored window drops them (a write) or leaves
	// them resident and clean (a write-back).
	resident   func(windows int) []int
	supersedes bool
}

// splitFailStreamDirty are chunks a stream test dirties before its
// WriteStream, in its first, a middle and its last window: the write
// supersedes them window by window.
var splitFailStreamDirty = []int{3, 64*streamWindowChunks + 5, 127*streamWindowChunks + 9}

var splitFailCases = []splitFailCase{
	{
		name:    "stream",
		windows: 128,
		prep: func(t *testing.T, sh *Shield, _ []byte, _ int) {
			t.Helper()
			junk := bytes.Repeat([]byte{0x5A}, 512)
			for _, c := range splitFailStreamDirty {
				if _, err := sh.WriteBurst(uint64(c*512), junk); err != nil {
					t.Fatal(err)
				}
			}
		},
		move: func(sh *Shield, img []byte, n int) error {
			_, err := sh.WriteStream(0, img[:n*streamWindowChunks*512])
			return err
		},
		resident:   func(int) []int { return splitFailStreamDirty },
		supersedes: true,
	},
	{
		name:    "flush",
		windows: 32,
		prep: func(t *testing.T, sh *Shield, img []byte, n int) {
			t.Helper()
			if _, err := sh.WriteBurst(0, img[:n*streamWindowChunks*512]); err != nil {
				t.Fatal(err)
			}
		},
		move: func(sh *Shield, _ []byte, _ int) error { return sh.Flush() },
		resident: func(windows int) []int {
			all := make([]int, windows*streamWindowChunks)
			for c := range all {
				all[c] = c
			}
			return all
		},
	},
}

// TestSplitStoreFailure fails one store of a batch that splits its seals
// across workers: the data store of the first window, the tag store of a
// middle window, or the data store of the last, at one, two and four Ps.
// The windows before the failing one are stored and charged exactly as a
// batch of those windows alone; the failing window has its counters
// bumped but stays invalid, and its resident lines stay dirty; the
// windows after it are untouched. After the port heals, a retry moves
// everything and every chunk reads back.
func TestSplitStoreFailure(t *testing.T) {
	const size = 1 << 20
	cfg := flushBenchConfig(size)
	img := make([]byte, size)
	rand.New(rand.NewSource(37)).Read(img)
	for _, tc := range splitFailCases {
		for _, procs := range []int{1, 2, 4} {
			for _, fail := range []struct{ window, store int }{
				{0, 1}, {tc.windows / 2, tc.windows + 2}, {tc.windows - 1, 2*tc.windows - 1},
			} {
				t.Run(fmt.Sprintf("%s/P%d/window%d", tc.name, procs, fail.window), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					testSplitStoreFailure(t, cfg, img, tc, fail.window, fail.store)
				})
			}
		}
	}
}

func testSplitStoreFailure(t *testing.T, cfg Config, img []byte, tc splitFailCase, failWin, store int) {
	// Reference: the same batch cut before the failing window.
	ref, _, _ := newBatchRig(t, cfg, perf.Default())
	tc.prep(t, ref, img, failWin)
	ref.ResetStats()
	if err := tc.move(ref, img, failWin); err != nil {
		t.Fatal(err)
	}
	want := ref.Report().Regions[0]

	sh, rec, _ := newBatchRig(t, cfg, perf.Default())
	port := &failingPort{MemoryPort: rec.inner}
	rec.inner = port
	tc.prep(t, sh, img, tc.windows)
	sh.ResetStats()
	port.failAt = store
	if err := tc.move(sh, img, tc.windows); !errors.Is(err, errStoreFailed) {
		t.Fatalf("batch returned %v, want the injected store failure", err)
	}
	if got := sh.Report().Regions[0]; got != want {
		t.Errorf("stats after the failure %+v\nwant %+v (a batch of the windows before it)", got, want)
	}

	set, err := sh.setFor(0)
	if err != nil {
		t.Fatal(err)
	}
	set.mu.Lock()
	for c := 0; c < tc.windows*streamWindowChunks; c++ {
		w := c / streamWindowChunks
		wantCtr := uint32(0)
		if w <= failWin {
			wantCtr = 1
		}
		if set.counters[c] != wantCtr {
			t.Errorf("window %d chunk %d: counter %d, want %d", w, c, set.counters[c], wantCtr)
		}
		if set.initialized[c] != (w < failWin) {
			t.Errorf("window %d chunk %d: valid %v, want %v", w, c, set.initialized[c], w < failWin)
		}
	}
	for _, c := range tc.resident(tc.windows) {
		w := c / streamWindowChunks
		ln := set.lines[c]
		wantResident, wantDirty := w >= failWin || !tc.supersedes, w >= failWin
		if (ln != nil) != wantResident || ln != nil && ln.dirty != wantDirty {
			t.Errorf("window %d chunk %d: resident %v, dirty %v; want resident %v, dirty %v",
				w, c, ln != nil, ln != nil && ln.dirty, wantResident, wantDirty)
		}
	}
	set.mu.Unlock()

	port.failAt = 0
	if err := tc.move(sh, img, tc.windows); err != nil {
		t.Fatalf("retry after the port healed: %v", err)
	}
	sh.InvalidateClean()
	n := tc.windows * streamWindowChunks * 512
	got := make([]byte, n)
	if _, err := sh.ReadStream(0, got); err != nil {
		t.Fatalf("read back after the retry: %v", err)
	}
	if !bytes.Equal(got, img[:n]) {
		t.Fatal("the retried batch reads back wrong bytes")
	}
}

// failingReadPort fails the failAt-th ReadBurst (1-based) it sees; zero
// disarms it.
type failingReadPort struct {
	axi.MemoryPort
	reads, failAt int
}

var errFetchFailed = errors.New("injected fetch failure")

func (p *failingReadPort) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	p.reads++
	if p.failAt > 0 && p.reads == p.failAt {
		return 0, errFetchFailed
	}
	return p.MemoryPort.ReadBurst(addr, buf)
}

// TestStreamFetchFailureMidBatch fails a fetch in the middle window of a
// 1 MiB ReadStream, a window that also holds a resident dirty line, a
// resident clean line and virgin chunks, at one, two and four Ps. The
// windows before it are delivered and charged as a read of them alone;
// the failing window delivers its resident and virgin slots only, and
// is not charged; the windows after it are untouched. The set is not
// latched: once the port heals, the read delivers everything.
func TestStreamFetchFailureMidBatch(t *testing.T) {
	const (
		size   = 1 << 20
		win    = streamWindowChunks * 512
		failW  = 64
		dirtyC = failW*streamWindowChunks + 2
		cleanC = failW*streamWindowChunks + 5
	)
	img := make([]byte, size)
	rand.New(rand.NewSource(41)).Read(img)
	junk := bytes.Repeat([]byte{0x5A}, 512)
	// rig writes img except the failing window's last eight chunks, which
	// stay virgin, dirties one line and makes another resident and clean.
	rig := func(t *testing.T) (*Shield, *failingReadPort) {
		sh, rec, _ := newBatchRig(t, flushBenchConfig(size), perf.Default())
		port := &failingReadPort{MemoryPort: rec.inner}
		rec.inner = port
		if _, err := sh.WriteStream(0, img[:failW*win+8*512]); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.WriteStream((failW+1)*win, img[(failW+1)*win:]); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.WriteBurst(dirtyC*512, junk); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.ReadBurst(cleanC*512, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		sh.ResetStats()
		port.reads = 0
		return sh, port
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ref, _ := rig(t)
			if _, err := ref.ReadStream(0, make([]byte, failW*win)); err != nil {
				t.Fatal(err)
			}
			want := ref.Report().Regions[0]
			want.Hits += 2 // the failing window serves its resident lines

			sh, port := rig(t)
			// Every earlier window fetches one run, data then tags; the
			// failing window's second run is its fourth fetch.
			port.failAt = 2*failW + 3
			got := bytes.Repeat([]byte{0xEE}, size)
			if _, err := sh.ReadStream(0, got); !errors.Is(err, errFetchFailed) {
				t.Fatalf("ReadStream returned %v, want the injected fetch failure", err)
			}
			if rs := sh.Report().Regions[0]; rs != want {
				t.Errorf("stats after the failure %+v\nwant %+v", rs, want)
			}
			if !bytes.Equal(got[:failW*win], img[:failW*win]) {
				t.Error("the windows before the failing one read back wrong bytes")
			}
			for c := failW * streamWindowChunks; c < size/512; c++ {
				slot := got[c*512 : (c+1)*512]
				want := bytes.Repeat([]byte{0xEE}, 512)
				switch {
				case c == dirtyC:
					want = junk
				case c == cleanC:
					want = img[c*512 : (c+1)*512]
				case c >= failW*streamWindowChunks+8 && c < (failW+1)*streamWindowChunks:
					want = make([]byte, 512)
				}
				if !bytes.Equal(slot, want) {
					t.Errorf("chunk %d (window %d) holds the wrong bytes", c, c/streamWindowChunks)
				}
			}

			port.failAt = 0
			if _, err := sh.ReadStream(0, got); err != nil {
				t.Fatalf("ReadStream after the port healed: %v", err)
			}
			wantAll := append([]byte(nil), img...)
			copy(wantAll[dirtyC*512:], junk)
			clear(wantAll[failW*win+8*512 : (failW+1)*win])
			if !bytes.Equal(got, wantAll) {
				t.Error("the healed read returned the wrong bytes")
			}
		})
	}
}
