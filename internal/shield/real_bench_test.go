package shield

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/mem"
	"shef/internal/perf"
)

// This file measures the Shield's *real* data-path throughput — wall-clock
// MB/s through the stdlib crypto — as opposed to the simulated cycle
// metrics (sim-*) the calibration benchmarks report. Every benchmark here
// runs once per MAC kind, and the steady-state window loop is asserted
// allocation-free: benchtab gates allocs/op at zero for any benchmark
// whose name contains "Real".

// realBenchBytes is the per-op transfer size: large enough that the
// per-call setup (lock, region routing) is noise against the per-window
// crypto work, small enough that -benchtime=1x CI runs stay instant.
const realBenchBytes = 1 << 20

// realMACs are the region MAC kinds the Real benchmarks run over, named
// as their sub-benchmarks. PMAC first so the headline number leads.
var realMACs = []struct {
	name string
	mac  MACKind
}{
	{"pmac", PMAC},
	{"hmac", HMAC},
}

// realConfig is the stream bench region with its MAC set to mac.
func realConfig(mac MACKind, size uint64) Config {
	cfg := streamBenchConfig(size)
	cfg.Regions[0].MAC = mac
	return cfg
}

// reportRealMBps attaches the real throughput metric benchtab records.
func reportRealMBps(b *testing.B, unit string, bytesPerOp int) {
	b.Helper()
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	b.ReportMetric(float64(bytesPerOp)*float64(b.N)/secs/1e6, unit)
}

// BenchmarkRealReadStream is the headline number: MB/s of authenticated
// decryption through ReadStream. The region's buffer holds only four
// lines and a stream read never inserts lines, so every op re-fetches
// and re-verifies the full image — pure fetch/open pipeline.
func BenchmarkRealReadStream(b *testing.B) {
	for _, rm := range realMACs {
		b.Run(rm.name, func(b *testing.B) {
			sh, _ := newStreamRigParams(b, realConfig(rm.mac, realBenchBytes), realBenchBytes, perf.Default())
			buf := make([]byte, realBenchBytes)
			if _, err := sh.ReadStream(0, buf); err != nil { // prime the line pool
				b.Fatal(err)
			}
			b.SetBytes(realBenchBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.ReadStream(0, buf); err != nil {
					b.Fatal(err)
				}
			}
			reportRealMBps(b, "real-stream-MB/s", realBenchBytes)
		})
	}
}

// BenchmarkRealWriteStream measures seal+store MB/s through WriteStream.
// Full-chunk stream writes never fetch and supersede resident lines, so
// every op seals the full image.
func BenchmarkRealWriteStream(b *testing.B) {
	for _, rm := range realMACs {
		b.Run(rm.name, func(b *testing.B) {
			sh, img := newStreamRigParams(b, realConfig(rm.mac, realBenchBytes), realBenchBytes, perf.Default())
			if _, err := sh.WriteStream(0, img); err != nil { // prime the line pool
				b.Fatal(err)
			}
			b.SetBytes(realBenchBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.WriteStream(0, img); err != nil {
					b.Fatal(err)
				}
			}
			reportRealMBps(b, "real-stream-MB/s", realBenchBytes)
		})
	}
}

// BenchmarkRealFlush measures the batched write-back: dirty the whole
// region through resident lines, then seal and store it in one flush,
// whose batches split their seals across Ps as a stream's do. A single
// region takes Shield.Flush's direct path (no per-set goroutine or
// error-slice setup), and a buffer sized to the region keeps every line
// resident across ops, so the loop is re-dirty + flush only.
func BenchmarkRealFlush(b *testing.B) {
	for _, rm := range realMACs {
		b.Run(rm.name, func(b *testing.B) {
			cfg := realConfig(rm.mac, realBenchBytes)
			cfg.Regions[0].BufferBytes = realBenchBytes
			sh, img := newStreamRigParams(b, cfg, realBenchBytes, perf.Default())
			dirty := func() {
				if _, err := sh.WriteBurst(0, img); err != nil {
					b.Fatal(err)
				}
			}
			dirty() // prime: populate every line
			if err := sh.Flush(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(realBenchBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirty() // re-dirty resident lines (on-chip copy, untimed)
				b.StartTimer()
				if err := sh.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			reportRealMBps(b, "real-flush-MB/s", realBenchBytes)
		})
	}
}

// newBareRealRig is newStreamRigParams for the unsecured baseline: a
// keyless NewBare Shield over cfg whose region holds a random plaintext
// image of size bytes.
func newBareRealRig(tb testing.TB, cfg Config, size uint64) (*Shield, []byte) {
	tb.Helper()
	dram := mem.NewDRAM(2*size+1<<20, perf.Default())
	img := make([]byte, size)
	rand.New(rand.NewSource(17)).Read(img)
	if err := dram.RawWrite(cfg.Regions[0].Base, img); err != nil {
		tb.Fatal(err)
	}
	sh, err := NewBare(cfg, dram, perf.Default())
	if err != nil {
		tb.Fatal(err)
	}
	return sh, img
}

// TestRealBenchZeroAlloc pins the zero-alloc claim as a plain test so it
// holds on every `go test` run, not only when benchmarks are invoked:
// every path that seals or opens chunks must not allocate in steady
// state, under PMAC and HMAC alike, and neither may the keyless copies
// that stand in for sealing on the unsecured baseline (NewBare).
// testing.AllocsPerRun runs at GOMAXPROCS=1, where a stream's batches
// never split, so this test sees only the inline path;
// TestSplitStreamZeroAlloc covers the split.
func TestRealBenchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const size = 1 << 18
	rigs := []struct {
		name string
		mac  MACKind
		bare bool
	}{
		{"pmac", PMAC, false},
		{"hmac", HMAC, false},
		{"bare", PMAC, true},
	}
	for _, rk := range rigs {
		t.Run(rk.name, func(t *testing.T) {
			rig := func(cfg Config) (*Shield, []byte) {
				if rk.bare {
					return newBareRealRig(t, cfg, size)
				}
				return newStreamRigParams(t, cfg, size, perf.Default())
			}
			// stream has the four-line buffer of the Real benchmarks;
			// resident's buffer holds the whole region, as in
			// BenchmarkRealFlush; prefetch arms the sequential
			// prefetcher with room for full prefetch windows.
			stream, img := rig(realConfig(rk.mac, size))
			cfg := realConfig(rk.mac, size)
			cfg.Regions[0].BufferBytes = size
			resident, _ := rig(cfg)
			cfg = realConfig(rk.mac, size)
			cfg.Regions[0].SeqPrefetch = true
			cfg.Regions[0].BufferBytes = 2 * streamWindowChunks * cfg.Regions[0].ChunkSize
			prefetch, _ := rig(cfg)
			buf := make([]byte, size)
			chunk := make([]byte, cfg.Regions[0].ChunkSize)
			chunks := size / len(chunk)
			next, seq := 0, 0
			// An op that walks the region primes for one full pass
			// (prime ops): the region-lookup cache installs an entry on
			// each page's first touch.
			for _, tc := range []struct {
				name  string
				prime int
				op    func() error
			}{
				{"ReadStream", 8, func() error { _, err := stream.ReadStream(0, buf); return err }},
				{"WriteStream", 8, func() error { _, err := stream.WriteStream(0, img); return err }},
				// A one-chunk read of the next chunk along: always a buffer
				// miss, so load fetches and opens it.
				{"ReadBurst miss", chunks, func() error {
					next = (next + 1) % chunks
					_, err := stream.ReadBurst(uint64(next*len(chunk)), chunk)
					return err
				}},
				// A partial write two chunks along: a fetch miss whose
				// eviction writes back a dirty victim with no dirty
				// neighbour to combine with.
				{"dirty eviction, no write combining", chunks / 2, func() error {
					next = (next + 2) % chunks
					_, err := stream.WriteBurst(uint64(next*len(chunk)), chunk[:100])
					return err
				}},
				// Re-dirty every resident line, then write them all back
				// through writeBack.
				{"re-dirty + Flush", 8, func() error {
					if _, err := resident.WriteBurst(0, img); err != nil {
						return err
					}
					return resident.Flush()
				}},
				// A prefetch window's worth of one-chunk reads, ascending
				// from where the last op stopped: the detector stays armed,
				// so every op takes at least one prefetching miss.
				{"sequential chunked reads, SeqPrefetch", chunks / streamWindowChunks, func() error {
					for i := 0; i < streamWindowChunks; i++ {
						if _, err := prefetch.ReadBurst(uint64(seq*len(chunk)), chunk); err != nil {
							return err
						}
						seq = (seq + 1) % chunks
					}
					return nil
				}},
			} {
				// Prime: fill the buffer and the line pool.
				for i := 0; i < tc.prime; i++ {
					if err := tc.op(); err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
				}
				var opErr error
				allocs := testing.AllocsPerRun(20, func() {
					if err := tc.op(); err != nil {
						opErr = err
					}
				})
				if opErr != nil {
					t.Fatalf("%s: %v", tc.name, opErr)
				}
				if allocs != 0 {
					t.Errorf("%s %s: %v allocs/op, want 0", tc.name, rk.name, allocs)
				}
			}
			if st := prefetch.Report().Regions[0]; st.Prefetched == 0 {
				t.Errorf("prefetch rig fetched nothing ahead: %+v", st)
			}
		})
	}
}

// TestSplitStreamZeroAlloc is TestRealBenchZeroAlloc for the split path:
// at two and four Ps, 1 MiB ReadStream, WriteStream and Flush ops each
// move one batch, split once across workers, and testing.AllocsPerRun
// cannot see that (it runs at one P). It counts runtime.MemStats.Mallocs
// over opsPerCheck ops instead. Starting a worker reuses a dead goroutine,
// but the runtime allocates a new one while the caller's P has none to
// hand, so a few allocations in total are allowed while the pool of dead
// goroutines settles. An allocation per split would cost one per op,
// which the bound of fewer than one per op still catches.
func TestSplitStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const opsPerCheck = 32
	for _, procs := range []int{2, 4} {
		for _, rm := range realMACs {
			t.Run(fmt.Sprintf("%s/P%d", rm.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				sh, img := newStreamRigParams(t, realConfig(rm.mac, realBenchBytes), realBenchBytes, perf.Default())
				// resident's buffer holds the whole region, as in
				// BenchmarkRealFlush.
				cfg := realConfig(rm.mac, realBenchBytes)
				cfg.Regions[0].BufferBytes = realBenchBytes
				resident, _ := newStreamRigParams(t, cfg, realBenchBytes, perf.Default())
				buf := make([]byte, realBenchBytes)
				for _, tc := range []struct {
					name string
					op   func() error
				}{
					{"ReadStream", func() error { _, err := sh.ReadStream(0, buf); return err }},
					{"WriteStream", func() error { _, err := sh.WriteStream(0, img); return err }},
					{"re-dirty + Flush", func() error {
						if _, err := resident.WriteBurst(0, img); err != nil {
							return err
						}
						return resident.Flush()
					}},
				} {
					for i := 0; i < opsPerCheck; i++ { // warm up
						if err := tc.op(); err != nil {
							t.Fatalf("%s: %v", tc.name, err)
						}
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < opsPerCheck; i++ {
						if err := tc.op(); err != nil {
							t.Fatalf("%s: %v", tc.name, err)
						}
					}
					runtime.ReadMemStats(&after)
					if n := after.Mallocs - before.Mallocs; n >= opsPerCheck {
						t.Errorf("%s: %d allocations over %d ops at %d Ps, want fewer than one per op",
							tc.name, n, opsPerCheck, procs)
					} else {
						t.Logf("%s: %d allocations over %d ops", tc.name, n, opsPerCheck)
					}
				}
			})
		}
	}
}
