package shield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"shef/internal/axi"
	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// This file covers the write side of the pipelined data path — batched
// flush write-back, bulk-eviction write combining, the intrusive LRU —
// and the adaptive sequential prefetcher, plus the acceptance benchmarks
// BenchmarkFlushBatched and BenchmarkSequentialChunkedRead.

// recordPort wraps a MemoryPort and records the address of every write
// transaction, so tests can assert DRAM write order and batching.
type recordPort struct {
	inner  axi.MemoryPort
	writes []uint64
	wsizes []int
}

func (p *recordPort) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	return p.inner.ReadBurst(addr, buf)
}

func (p *recordPort) WriteBurst(addr uint64, data []byte) (uint64, error) {
	p.writes = append(p.writes, addr)
	p.wsizes = append(p.wsizes, len(data))
	return p.inner.WriteBurst(addr, data)
}

// newBatchRig provisions a Shield over a recording port with the given
// config and params.
func newBatchRig(tb testing.TB, cfg Config, params perf.Params) (*Shield, *recordPort, *mem.DRAM) {
	tb.Helper()
	dram := mem.NewDRAM(16<<20, perf.Default())
	port := &recordPort{inner: dram}
	ocm := mem.NewOCM(1 << 30)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sh, err := New(cfg, priv, port, ocm, params)
	if err != nil {
		tb.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0xC3}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		tb.Fatal(err)
	}
	return sh, port, dram
}

// flushBenchConfig is the acceptance configuration: one 1 MiB region,
// 512-byte chunks, a 16-engine pool with PMAC so sealing parallelises,
// freshness counters on, and a buffer large enough to hold every line
// dirty at once.
func flushBenchConfig(size uint64) Config {
	return Config{
		Regions: []RegionConfig{{
			Name: "bulk", Base: 0, Size: size, ChunkSize: 512,
			AESEngines: 16, SBox: aesx.SBox16x, KeySize: aesx.AES128,
			MAC: PMAC, BufferBytes: int(size), Freshness: true,
		}},
		Registers: 4,
	}
}

// dirtyFlushCycles dirties the whole region through full-chunk overwrites
// and returns the busy cycles the flush alone cost.
func dirtyFlushCycles(tb testing.TB, sh *Shield, img []byte) uint64 {
	tb.Helper()
	if _, err := sh.WriteBurst(0, img); err != nil {
		tb.Fatal(err)
	}
	sh.ResetStats()
	if err := sh.Flush(); err != nil {
		tb.Fatal(err)
	}
	return sh.Report().Regions[0].BusyCycles
}

// TestFlushBatchedSpeedup enforces the acceptance criterion: flushing a
// fully dirty 1 MiB region (512 B chunks, 16 engines) through the batched
// write-back pipeline is at least twice as fast, in simulated cycles, as
// the per-chunk accounting (WritebackBatchChunks = 1).
func TestFlushBatchedSpeedup(t *testing.T) {
	const size = 1 << 20
	img := make([]byte, size)
	rand.New(rand.NewSource(21)).Read(img)

	serialParams := perf.Default()
	serialParams.WritebackBatchChunks = 1
	shSerial, _, _ := newBatchRig(t, flushBenchConfig(size), serialParams)
	serial := dirtyFlushCycles(t, shSerial, img)

	shBatched, _, _ := newBatchRig(t, flushBenchConfig(size), perf.Default())
	batched := dirtyFlushCycles(t, shBatched, img)

	speedup := float64(serial) / float64(batched)
	t.Logf("1 MiB flush: per-chunk %d cyc, batched %d cyc, speedup %.2fx", serial, batched, speedup)
	if speedup < 2.0 {
		t.Fatalf("batched flush speedup %.2fx below the 2x acceptance bar", speedup)
	}

	// The batched flush must publish exactly the same plaintext.
	shBatched.InvalidateClean()
	got := make([]byte, size)
	if _, err := shBatched.ReadBurst(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("batched flush corrupted the region image")
	}
	// Exactly one freshness epoch per chunk, batched or not.
	snap, err := shBatched.CounterSnapshot("bulk")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range snap.Counters {
		if c != 1 {
			t.Fatalf("chunk %d counter = %d, want 1 after one flush", i, c)
		}
	}
	rs := shBatched.Report().Regions[0]
	if rs.Writebacks != size/512 || rs.BatchedWritebacks != size/512 {
		t.Fatalf("writebacks %d batched %d, want %d each", rs.Writebacks, rs.BatchedWritebacks, size/512)
	}
}

// BenchmarkFlushBatched measures the batched flush of a fully dirty 1 MiB
// region and reports the simulated speedup over per-chunk accounting —
// the sim-flush-* metrics CI's benchmark gate tracks.
func BenchmarkFlushBatched(b *testing.B) {
	const size = 1 << 20
	img := make([]byte, size)
	rand.New(rand.NewSource(22)).Read(img)

	serialParams := perf.Default()
	serialParams.WritebackBatchChunks = 1
	shSerial, _, _ := newBatchRig(b, flushBenchConfig(size), serialParams)
	serial := dirtyFlushCycles(b, shSerial, img)

	sh, _, _ := newBatchRig(b, flushBenchConfig(size), perf.Default())
	batched := dirtyFlushCycles(b, sh, img)

	params := perf.Default()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.WriteBurst(0, img); err != nil {
			b.Fatal(err)
		}
		if err := sh.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(serial)/float64(batched), "sim-flush-speedup-x")
	b.ReportMetric(float64(size)/(1<<20)/params.Seconds(batched), "sim-flush-MiB/s")
	b.Logf("per-chunk %d cyc vs batched %d cyc → %.2fx", serial, batched, float64(serial)/float64(batched))
}

// TestFlushDeterministic: flush used to iterate the line map in Go's
// random order; it must store chunks in ascending address order (stable
// DRAM write order, stable cycle accounting) run after run.
func TestFlushDeterministic(t *testing.T) {
	cfg := flushBenchConfig(1 << 16)
	var lastCycles uint64
	for trial := 0; trial < 3; trial++ {
		sh, port, _ := newBatchRig(t, cfg, perf.Default())
		img := make([]byte, 1<<16)
		rand.New(rand.NewSource(23)).Read(img)
		if _, err := sh.WriteBurst(0, img); err != nil {
			t.Fatal(err)
		}
		sh.ResetStats()
		port.writes = port.writes[:0]
		if err := sh.Flush(); err != nil {
			t.Fatal(err)
		}
		layout, err := sh.Layout("bulk")
		if err != nil {
			t.Fatal(err)
		}
		lastData, lastTag := -1, -1
		for i, addr := range port.writes {
			if addr < layout.TagBase {
				if int(addr) <= lastData {
					t.Fatalf("trial %d: data writes out of order: %#x after %#x (write %d)", trial, addr, lastData, i)
				}
				lastData = int(addr)
			} else {
				if int(addr) <= lastTag {
					t.Fatalf("trial %d: tag writes out of order: %#x after %#x (write %d)", trial, addr, lastTag, i)
				}
				lastTag = int(addr)
			}
		}
		cycles := sh.Report().Regions[0].BusyCycles
		if trial > 0 && cycles != lastCycles {
			t.Fatalf("trial %d: flush cost %d cycles, previous run %d (nondeterministic accounting)", trial, cycles, lastCycles)
		}
		lastCycles = cycles
	}
}

// churnConfig is a tiny 4-line buffer over a 32-chunk region, built to
// force eviction churn.
func churnConfig() Config {
	return Config{
		Regions: []RegionConfig{{
			Name: "churn", Base: 0, Size: 32 * 512, ChunkSize: 512,
			AESEngines: 4, SBox: aesx.SBox16x, KeySize: aesx.AES128,
			MAC: PMAC, BufferBytes: 4 * 512, Freshness: true,
		}},
		Registers: 4,
	}
}

// TestEvictionChurnLRUOrder overfills the buffer with dirty lines under
// WritebackBatchChunks=1 (every eviction stores exactly its victim), so
// the recorded DRAM write order IS the victim order — which must be
// strict LRU recency order as maintained by the intrusive list.
func TestEvictionChurnLRUOrder(t *testing.T) {
	params := perf.Default()
	params.WritebackBatchChunks = 1
	sh, port, _ := newBatchRig(t, churnConfig(), params)
	chunk := make([]byte, 512)

	// Dirty chunks 0..3 (buffer now full), then touch 1 and 0 so recency
	// is [0, 1, 3, 2] (most→least recent: victims come off the tail).
	for c := 0; c < 4; c++ {
		chunk[0] = byte(c)
		if _, err := sh.WriteBurst(uint64(c*512), chunk); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []int{1, 0} {
		if _, err := sh.ReadBurst(uint64(c*512), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	port.writes = port.writes[:0]

	// Six more dirty chunks evict, in strict LRU order: 2, 3, 1, 0, then
	// the newly inserted 8 and 9 (8 written before 9, touched in order).
	for c := 8; c < 14; c++ {
		chunk[0] = byte(c)
		if _, err := sh.WriteBurst(uint64(c*512), chunk); err != nil {
			t.Fatal(err)
		}
	}
	wantVictims := []int{2, 3, 1, 0, 8, 9}
	var gotVictims []int
	layout, _ := sh.Layout("churn")
	for _, addr := range port.writes {
		if addr < layout.TagBase { // data store, not the tag store
			gotVictims = append(gotVictims, int(addr/512))
		}
	}
	if fmt.Sprint(gotVictims) != fmt.Sprint(wantVictims) {
		t.Fatalf("victim write-back order %v, want strict LRU %v", gotVictims, wantVictims)
	}

	rs := sh.Report().Regions[0]
	if rs.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", rs.Evictions)
	}
	if rs.Writebacks != 6 || rs.BatchedWritebacks != 0 {
		t.Fatalf("writebacks = %d batched = %d, want 6 and 0 under batch size 1", rs.Writebacks, rs.BatchedWritebacks)
	}
}

// TestEvictionChurnBatchedStats cross-checks Evictions / Writebacks /
// BatchedWritebacks against a known access trace with write combining
// enabled: a dirty victim's contiguous dirty neighbours ride the same
// batched store and stay resident (clean).
func TestEvictionChurnBatchedStats(t *testing.T) {
	sh, port, _ := newBatchRig(t, churnConfig(), perf.Default())
	chunk := make([]byte, 512)
	// Dirty chunks 0..3; writing chunk 4 evicts LRU victim 0, and write
	// combining extends the store across dirty neighbours 1..3.
	for c := 0; c < 5; c++ {
		chunk[0] = byte(c)
		if _, err := sh.WriteBurst(uint64(c*512), chunk); err != nil {
			t.Fatal(err)
		}
	}
	rs := sh.Report().Regions[0]
	if rs.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (only the victim leaves)", rs.Evictions)
	}
	if rs.Writebacks != 4 || rs.BatchedWritebacks != 4 {
		t.Fatalf("writebacks = %d batched = %d, want 4 and 4 (one combined run)", rs.Writebacks, rs.BatchedWritebacks)
	}
	// One data store + one tag store for the whole run.
	layout, _ := sh.Layout("churn")
	var dataWrites int
	for i, addr := range port.writes {
		if addr < layout.TagBase {
			dataWrites++
			if port.wsizes[i] != 4*512 {
				t.Fatalf("combined store was %d bytes, want %d", port.wsizes[i], 4*512)
			}
		}
	}
	if dataWrites != 1 {
		t.Fatalf("data store transactions = %d, want 1 batched run", dataWrites)
	}
	// Chunks 1..3 stayed resident and clean: the flush stores only the
	// still-dirty chunk 4, not the lines write combining already cleaned.
	port.writes = port.writes[:0]
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, addr := range port.writes {
		if addr < layout.TagBase && addr != 4*512 {
			t.Fatalf("flush re-stored chunk %d after write combining cleaned it", int(addr/512))
		}
	}
	// And the data still round-trips.
	sh.InvalidateClean()
	got := make([]byte, 512)
	for c := 0; c < 5; c++ {
		if _, err := sh.ReadBurst(uint64(c*512), got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(c) {
			t.Fatalf("chunk %d byte 0 = %d, want %d", c, got[0], c)
		}
	}
}

// prefetchConfig arms the sequential prefetcher over a preloadable region.
func prefetchConfig(size uint64, prefetch bool) Config {
	return Config{
		Regions: []RegionConfig{{
			Name: "bulk", Base: 0, Size: size, ChunkSize: 512,
			AESEngines: 16, SBox: aesx.SBox16x, KeySize: aesx.AES128,
			MAC: PMAC, BufferBytes: 32 * 512, SeqPrefetch: prefetch,
		}},
		Registers: 4,
	}
}

// newPrefetchRig preloads size bytes of sealed data (the Data Owner DMA
// path) behind a Shield with or without the prefetcher armed.
func newPrefetchRig(tb testing.TB, size uint64, prefetch bool) (*Shield, []byte) {
	tb.Helper()
	cfg := prefetchConfig(size, prefetch)
	dram := mem.NewDRAM(2*size+1<<20, perf.Default())
	ocm := mem.NewOCM(1 << 30)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sh, err := New(cfg, priv, dram, ocm, perf.Default())
	if err != nil {
		tb.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0x7E}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		tb.Fatal(err)
	}
	img := make([]byte, size)
	rand.New(rand.NewSource(24)).Read(img)
	preload(tb, sh, dram, dek, "bulk", img)
	return sh, img
}

// chunkAtATime reads the whole region through per-chunk ReadBursts — the
// access pattern of kernels that never issue bulk transfers — and returns
// the busy cycles.
func chunkAtATime(tb testing.TB, sh *Shield, img []byte) uint64 {
	tb.Helper()
	sh.InvalidateClean()
	sh.ResetStats()
	buf := make([]byte, 512)
	for off := 0; off < len(img); off += 512 {
		if _, err := sh.ReadBurst(uint64(off), buf); err != nil {
			tb.Fatal(err)
		}
		if !bytes.Equal(buf, img[off:off+512]) {
			tb.Fatalf("chunk at %d read wrong bytes", off)
		}
	}
	return sh.Report().Regions[0].BusyCycles
}

// TestSequentialPrefetchClosesStreamGap enforces the acceptance
// criterion: chunk-at-a-time sequential reads with the prefetcher armed
// close most of the gap to an explicit ReadStream of the same region.
func TestSequentialPrefetchClosesStreamGap(t *testing.T) {
	if testing.Short() {
		t.Skip("1 MiB crypto sweep in -short mode")
	}
	const size = 1 << 20
	shOff, img := newPrefetchRig(t, size, false)
	chunked := chunkAtATime(t, shOff, img)

	shOn, img2 := newPrefetchRig(t, size, true)
	prefetched := chunkAtATime(t, shOn, img2)
	rs := shOn.Report().Regions[0]
	if rs.Prefetched == 0 || rs.PrefetchHits == 0 {
		t.Fatalf("prefetcher never engaged: %+v", rs)
	}

	shOn.InvalidateClean()
	shOn.ResetStats()
	buf := make([]byte, size)
	if _, err := shOn.ReadStream(0, buf); err != nil {
		t.Fatal(err)
	}
	streamed := shOn.Report().Regions[0].BusyCycles

	t.Logf("1 MiB sequential: chunked %d cyc, prefetched %d cyc, streamed %d cyc", chunked, prefetched, streamed)
	if prefetched >= chunked {
		t.Fatalf("prefetcher did not help: %d >= %d cycles", prefetched, chunked)
	}
	// "Most of the gap": at least 70% of the chunked→streamed win.
	gapClosed := float64(chunked-prefetched) / float64(chunked-streamed)
	t.Logf("gap to ReadStream closed: %.0f%%", gapClosed*100)
	if gapClosed < 0.70 {
		t.Fatalf("prefetcher closed only %.0f%% of the stream gap, want ≥70%%", gapClosed*100)
	}
}

// BenchmarkSequentialChunkedRead measures chunk-at-a-time sequential
// reads with and without the adaptive prefetcher, against ReadStream —
// the sim-prefetch-* metrics CI's benchmark gate tracks.
func BenchmarkSequentialChunkedRead(b *testing.B) {
	const size = 1 << 20
	shOff, img := newPrefetchRig(b, size, false)
	chunked := chunkAtATime(b, shOff, img)

	sh, img2 := newPrefetchRig(b, size, true)
	prefetched := chunkAtATime(b, sh, img2)

	sh.InvalidateClean()
	sh.ResetStats()
	big := make([]byte, size)
	if _, err := sh.ReadStream(0, big); err != nil {
		b.Fatal(err)
	}
	streamed := sh.Report().Regions[0].BusyCycles

	params := perf.Default()
	b.SetBytes(size)
	b.ResetTimer()
	buf := make([]byte, 512)
	for i := 0; i < b.N; i++ {
		sh.InvalidateClean()
		for off := 0; off < len(img2); off += 512 {
			if _, err := sh.ReadBurst(uint64(off), buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(chunked)/float64(prefetched), "sim-prefetch-speedup-x")
	b.ReportMetric(float64(chunked-prefetched)/float64(chunked-streamed)*100, "sim-prefetch-gap-closed-pct")
	b.ReportMetric(float64(size)/(1<<20)/params.Seconds(prefetched), "sim-prefetch-MiB/s")
	b.Logf("chunked %d cyc, prefetched %d cyc (%.2fx), streamed %d cyc",
		chunked, prefetched, float64(chunked)/float64(prefetched), streamed)
}

// TestPrefetchServesCorrectData reads random unaligned spans with the
// prefetcher armed; every span must match the image, prefetched lines
// must serve later demand hits, and resident dirty lines must stay
// authoritative.
func TestPrefetchServesCorrectData(t *testing.T) {
	const size = 1 << 16
	sh, img := newPrefetchRig(t, size, true)
	rng := rand.New(rand.NewSource(25))

	// Sequential sweep to engage the prefetcher.
	buf := make([]byte, 512)
	for off := 0; off < size; off += 512 {
		if _, err := sh.ReadBurst(uint64(off), buf); err != nil {
			t.Fatal(err)
		}
	}
	rs := sh.Report().Regions[0]
	if rs.Prefetched == 0 {
		t.Fatal("sequential sweep never prefetched")
	}
	if rs.PrefetchHits > rs.Prefetched {
		t.Fatalf("prefetch hits %d exceed prefetched chunks %d", rs.PrefetchHits, rs.Prefetched)
	}

	// Dirty a line mid-region, then re-sweep: the dirty resident line is
	// authoritative even when the surrounding chunks prefetch.
	patch := []byte("dirty-resident-line-wins")
	if _, err := sh.WriteBurst(uint64(size/2+64), patch); err != nil {
		t.Fatal(err)
	}
	copy(img[size/2+64:], patch)
	sh.InvalidateClean()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4096)
		off := rng.Intn(size - n)
		span := make([]byte, n)
		if _, err := sh.ReadBurst(uint64(off), span); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(span, img[off:off+n]) {
			t.Fatalf("span [%d,+%d) read wrong bytes", off, n)
		}
	}
}

// TestPrefetchIntegrityTamperLatches: corruption inside a prefetched
// window is caught by the window's verify and latches the set.
func TestPrefetchIntegrityTamperLatches(t *testing.T) {
	const size = 1 << 14
	cfg := prefetchConfig(size, true)
	dram := mem.NewDRAM(2*size+1<<20, perf.Default())
	ocm := mem.NewOCM(1 << 30)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(cfg, priv, dram, ocm, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0x7E}, 32)
	lk, _ := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err := sh.ProvisionLoadKey(lk); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, size)
	rand.New(rand.NewSource(26)).Read(img)
	preload(t, sh, dram, dek, "bulk", img)
	// Flip a byte in a chunk the prefetcher (not the demand miss) fetches.
	raw, err := dram.RawRead(10*512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dram.RawWrite(10*512, []byte{raw[0] ^ 1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	var gotErr error
	for off := 0; off < size; off += 512 {
		if _, gotErr = sh.ReadBurst(uint64(off), buf); gotErr != nil {
			break
		}
	}
	var ie *IntegrityError
	if !errors.As(gotErr, &ie) {
		t.Fatalf("tampered prefetch returned %v, want IntegrityError", gotErr)
	}
	if _, err := sh.ReadBurst(0, make([]byte, 16)); err == nil {
		t.Fatal("set served traffic after prefetch integrity fault")
	}
}
