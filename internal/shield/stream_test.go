package shield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// fillRegion writes img through the chunked path and pushes it to DRAM so
// subsequent reads exercise the fetch/verify pipeline.
func fillRegion(t *testing.T, rig *testRig, base uint64, img []byte) {
	t.Helper()
	if _, err := rig.shield.WriteBurst(base, img); err != nil {
		t.Fatal(err)
	}
	if err := rig.shield.Flush(); err != nil {
		t.Fatal(err)
	}
	rig.shield.InvalidateClean()
}

func TestStreamReadMatchesChunked(t *testing.T) {
	rig := newRig(t, simpleConfig())
	img := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(img)
	fillRegion(t, rig, 0, img)

	got := make([]byte, len(img))
	if _, err := rig.shield.ReadStream(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("streamed read differs from written data")
	}
	// Unaligned offsets and lengths take the head/tail fallback but must
	// return identical bytes.
	for _, span := range [][2]int{{0, 1}, {13, 4099}, {511, 513}, {512, 512}, {1000, 30000}, {65535, 1}} {
		off, n := span[0], span[1]
		sub := make([]byte, n)
		if _, err := rig.shield.ReadStream(uint64(off), sub); err != nil {
			t.Fatalf("stream [%d,+%d): %v", off, n, err)
		}
		if !bytes.Equal(sub, img[off:off+n]) {
			t.Fatalf("stream [%d,+%d) returned wrong bytes", off, n)
		}
	}
}

func TestStreamWriteMatchesChunked(t *testing.T) {
	rig := newRig(t, simpleConfig())
	img := make([]byte, 1<<16)
	rand.New(rand.NewSource(8)).Read(img)
	// Unaligned stream write: head and tail ride the chunked path.
	if _, err := rig.shield.WriteStream(100, img[100:60000]); err != nil {
		t.Fatal(err)
	}
	if err := rig.shield.Flush(); err != nil { // flush the partial head/tail lines
		t.Fatal(err)
	}
	rig.shield.InvalidateClean()
	got := make([]byte, 60000-100)
	if _, err := rig.shield.ReadBurst(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img[100:60000]) {
		t.Fatal("chunked read does not see streamed write")
	}
}

func TestStreamReadServesDirtyLines(t *testing.T) {
	rig := newRig(t, simpleConfig())
	img := make([]byte, 1<<14)
	rand.New(rand.NewSource(9)).Read(img)
	fillRegion(t, rig, 0, img)
	// Dirty a partial chunk without flushing: the resident line is newer
	// than DRAM and the stream must serve it from on-chip memory.
	patch := []byte("fresh-bytes-in-buffer")
	if _, err := rig.shield.WriteBurst(600, patch); err != nil {
		t.Fatal(err)
	}
	copy(img[600:], patch)
	got := make([]byte, len(img))
	if _, err := rig.shield.ReadStream(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("stream read did not serve the dirty resident line")
	}
}

func TestStreamWriteSupersedesDirtyLines(t *testing.T) {
	rig := newRig(t, simpleConfig())
	// Dirty a line, then stream a full-chunk overwrite across it: the
	// streamed epoch must win, and a later flush must not resurrect the
	// stale line.
	if _, err := rig.shield.WriteBurst(512, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 4*512)
	rand.New(rand.NewSource(10)).Read(img)
	if _, err := rig.shield.WriteStream(0, img); err != nil {
		t.Fatal(err)
	}
	if err := rig.shield.Flush(); err != nil {
		t.Fatal(err)
	}
	rig.shield.InvalidateClean()
	got := make([]byte, len(img))
	if _, err := rig.shield.ReadBurst(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("stale dirty line survived a streamed overwrite")
	}
}

func TestStreamVirginChunksReadZero(t *testing.T) {
	rig := newRig(t, simpleConfig())
	got := make([]byte, 8192)
	for i := range got {
		got[i] = 0xFF
	}
	if _, err := rig.shield.ReadStream(0, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("virgin byte %d = %#x, want 0", i, b)
		}
	}
}

func TestStreamIntegrityTamperLatches(t *testing.T) {
	rig := newRig(t, simpleConfig())
	img := make([]byte, 1<<14)
	rand.New(rand.NewSource(11)).Read(img)
	fillRegion(t, rig, 0, img)
	// Adversary flips a ciphertext byte in DRAM.
	raw, err := rig.dram.RawRead(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.dram.RawWrite(1024, []byte{raw[0] ^ 1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(img))
	_, err = rig.shield.ReadStream(0, buf)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("tampered stream read returned %v, want IntegrityError", err)
	}
	// The fault latch parks the set for all subsequent traffic.
	if _, err := rig.shield.ReadBurst(0, make([]byte, 16)); err == nil {
		t.Fatal("set served chunked traffic after integrity fault")
	}
	if _, err := rig.shield.ReadStream(0, make([]byte, 512)); err == nil {
		t.Fatal("set served streamed traffic after integrity fault")
	}
}

func TestStreamFreshnessCountersAdvance(t *testing.T) {
	rig := newRig(t, simpleConfig())
	img := make([]byte, 4*512)
	rand.New(rand.NewSource(12)).Read(img)
	if _, err := rig.shield.WriteStream(0, img); err != nil {
		t.Fatal(err)
	}
	snap, err := rig.shield.CounterSnapshot("data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if snap.Counters[i] != 1 {
			t.Fatalf("chunk %d counter = %d, want 1 after one streamed epoch", i, snap.Counters[i])
		}
	}
	// Re-streaming bumps the epoch again; the old ciphertext must no
	// longer verify (replay protection).
	if _, err := rig.shield.WriteStream(0, img); err != nil {
		t.Fatal(err)
	}
	snap, _ = rig.shield.CounterSnapshot("data")
	if snap.Counters[0] != 2 {
		t.Fatalf("counter = %d, want 2", snap.Counters[0])
	}
	got := make([]byte, len(img))
	if _, err := rig.shield.ReadStream(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("round trip through two streamed epochs failed")
	}
}

func TestStreamStatsReported(t *testing.T) {
	rig := newRig(t, simpleConfig())
	img := make([]byte, 1<<14) // 32 chunks
	rand.New(rand.NewSource(13)).Read(img)
	fillRegion(t, rig, 0, img)
	rig.shield.ResetStats()
	if _, err := rig.shield.ReadStream(0, img); err != nil {
		t.Fatal(err)
	}
	rep := rig.shield.Report()
	var rs RegionStats
	for _, r := range rep.Regions {
		if r.Name == "data" {
			rs = r
		}
	}
	if rs.Streamed != 32 {
		t.Fatalf("streamed chunks = %d, want 32", rs.Streamed)
	}
	if rs.StreamWindows != (32+streamWindowChunks-1)/streamWindowChunks {
		t.Fatalf("stream windows = %d", rs.StreamWindows)
	}
	if rs.BusyCycles == 0 || rs.DRAMCycles == 0 {
		t.Fatal("stream accounted no cycles")
	}
}

func TestStreamCheaperThanChunked(t *testing.T) {
	rig := newRig(t, simpleConfig())
	img := make([]byte, 1<<16)
	rand.New(rand.NewSource(14)).Read(img)
	fillRegion(t, rig, 0, img)

	rig.shield.ResetStats()
	if _, err := rig.shield.ReadBurst(0, img); err != nil {
		t.Fatal(err)
	}
	chunked := rig.shield.Report().Regions[0].BusyCycles
	rig.shield.InvalidateClean()
	rig.shield.ResetStats()
	if _, err := rig.shield.ReadStream(0, img); err != nil {
		t.Fatal(err)
	}
	streamed := rig.shield.Report().Regions[0].BusyCycles
	if streamed >= chunked {
		t.Fatalf("streamed read (%d cyc) not cheaper than chunked (%d cyc)", streamed, chunked)
	}
}

// TestStreamConcurrentWithChunkedTraffic runs streams, chunked reads and
// a streamed writer at once over two regions of four batches each. Every
// stream moves at least one full batch (streamBatchBytes) and every read
// two, so under -race the chunked reads interleave between batches whose
// crypto is split across workers.
func TestStreamConcurrentWithChunkedTraffic(t *testing.T) {
	const span = 2 * streamBatchBytes
	const size = 2 * span
	cfg := simpleConfig()
	cfg.Regions[0].Size = size
	cfg.Regions[1].Base, cfg.Regions[1].Size = size, size
	rig := newRig(t, cfg)
	img := make([]byte, size)
	rand.New(rand.NewSource(15)).Read(img)
	fillRegion(t, rig, 0, img)
	img2 := make([]byte, size)
	rand.New(rand.NewSource(16)).Read(img2)
	fillRegion(t, rig, size, img2)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(4)
	go func() { // streamed reads of region "data", two batches each
		defer wg.Done()
		buf := make([]byte, span)
		for i := 0; i < 4; i++ {
			if _, err := rig.shield.ReadStream(0, buf); err != nil {
				errs[0] = err
				return
			}
			if !bytes.Equal(buf, img[:span]) {
				errs[0] = errors.New("stream saw torn data")
				return
			}
		}
	}()
	go func() { // chunked reads of the same region interleave between batches
		defer wg.Done()
		buf := make([]byte, 2048)
		for i := 0; i < 32; i++ {
			off := (i * 16896) % (span - 2048)
			if _, err := rig.shield.ReadBurst(uint64(off), buf); err != nil {
				errs[1] = err
				return
			}
			if !bytes.Equal(buf, img[off:off+2048]) {
				errs[1] = errors.New("chunked read saw torn data")
				return
			}
		}
	}()
	go func() { // streamed writes to the second region, one batch each
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := rig.shield.WriteStream(size, img2[:streamBatchBytes]); err != nil {
				errs[2] = err
				return
			}
		}
	}()
	go func() { // streamed reads of the second region's second half
		defer wg.Done()
		buf := make([]byte, span)
		for i := 0; i < 4; i++ {
			if _, err := rig.shield.ReadStream(size+span, buf); err != nil {
				errs[3] = err
				return
			}
			if !bytes.Equal(buf, img2[span:]) {
				errs[3] = errors.New("stream saw torn data in region 2")
				return
			}
		}
	}()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// streamBenchConfig is the paper-scale streaming configuration the
// acceptance benchmark uses: a wide AES pool with PMAC so authentication
// parallelises, 512-byte chunks, one region.
func streamBenchConfig(size uint64) Config {
	return Config{
		Regions: []RegionConfig{{
			Name: "bulk", Base: 0, Size: size, ChunkSize: 512,
			AESEngines: 16, SBox: aesx.SBox16x, KeySize: aesx.AES128,
			MAC: PMAC, BufferBytes: 4 * 512,
		}},
		Registers: 4,
	}
}

// newStreamRig provisions a shield with size bytes of sealed data
// preloaded in DRAM (the Data Owner DMA path), ready to fetch and verify.
func newStreamRig(tb testing.TB, size uint64) (*Shield, []byte) {
	return newStreamRigParams(tb, streamBenchConfig(size), size, perf.Default())
}

// newStreamRigParams is newStreamRig with the region config and perf
// parameters chosen by the caller. cfg's first
// region must be named "bulk" with Base 0 and Size size.
func newStreamRigParams(tb testing.TB, cfg Config, size uint64, params perf.Params) (*Shield, []byte) {
	tb.Helper()
	dram := mem.NewDRAM(2*size+1<<20, params)
	ocm := mem.NewOCM(1 << 30)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sh, err := New(cfg, priv, dram, ocm, params)
	if err != nil {
		tb.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0xA5}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		tb.Fatal(err)
	}
	img := make([]byte, size)
	rand.New(rand.NewSource(17)).Read(img)
	preload(tb, sh, dram, dek, "bulk", img)
	return sh, img
}

// streamSpeedup measures the simulated busy-cycle ratio of the chunked
// path over the streamed path for one full-region read.
func streamSpeedup(tb testing.TB, sh *Shield, img []byte) (speedup float64, chunked, streamed uint64) {
	tb.Helper()
	buf := make([]byte, len(img))
	sh.InvalidateClean()
	sh.ResetStats()
	if _, err := sh.ReadBurst(0, buf); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		tb.Fatal("chunked read wrong")
	}
	chunked = sh.Report().Regions[0].BusyCycles
	sh.InvalidateClean()
	sh.ResetStats()
	if _, err := sh.ReadStream(0, buf); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(buf, img) {
		tb.Fatal("streamed read wrong")
	}
	streamed = sh.Report().Regions[0].BusyCycles
	return float64(chunked) / float64(streamed), chunked, streamed
}

// TestStreamSpeedupAtScale enforces the acceptance criterion: streamed
// 1 MiB+ bursts sustain at least twice the simulated throughput of the
// chunk-at-a-time path.
func TestStreamSpeedupAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1 MiB crypto sweep in -short mode")
	}
	sh, img := newStreamRig(t, 1<<20)
	speedup, chunked, streamed := streamSpeedup(t, sh, img)
	t.Logf("1 MiB read: chunked %d cyc, streamed %d cyc, speedup %.2fx", chunked, streamed, speedup)
	if speedup < 2.0 {
		t.Fatalf("streamed speedup %.2fx below the 2x acceptance bar", speedup)
	}
}

// BenchmarkStreamVsChunked is the repo's headline data-path benchmark:
// one full-region streamed read per iteration, with the simulated
// speedup over the chunked path and the simulated streamed bandwidth as
// metrics. CI's benchmark gate tracks sim-speedup-x across PRs.
func BenchmarkStreamVsChunked(b *testing.B) {
	for _, mib := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			size := uint64(mib) << 20
			sh, img := newStreamRig(b, size)
			speedup, chunked, streamed := streamSpeedup(b, sh, img)
			params := perf.Default()
			b.SetBytes(int64(size))
			b.ResetTimer()
			buf := make([]byte, size)
			for i := 0; i < b.N; i++ {
				sh.InvalidateClean()
				if _, err := sh.ReadStream(0, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = img
			b.ReportMetric(speedup, "sim-speedup-x")
			simMBps := float64(size) / (1 << 20) / params.Seconds(streamed)
			b.ReportMetric(simMBps, "sim-stream-MiB/s")
			b.Logf("chunked %d cyc vs streamed %d cyc → %.2fx, %.0f simulated MiB/s",
				chunked, streamed, speedup, simMBps)
		})
	}
}
