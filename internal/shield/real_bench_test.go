package shield

import (
	"testing"

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
// lines and readWindow never inserts lines, so every op re-fetches and
// re-verifies the full image — pure fetch/open pipeline.
func BenchmarkRealReadStream(b *testing.B) {
	for _, rm := range realMACs {
		b.Run(rm.name, func(b *testing.B) {
			sh, _ := newStreamRigParams(b, realConfig(rm.mac, realBenchBytes), realBenchBytes, perf.Default())
			buf := make([]byte, realBenchBytes)
			if _, err := sh.ReadStream(0, buf); err != nil { // prime pools and workers
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
			if _, err := sh.WriteStream(0, img); err != nil { // prime pools and workers
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
// region through resident lines, then seal and store it in one flush. A
// single region takes Shield.Flush's direct path (no per-set goroutine or
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

// TestRealBenchZeroAlloc pins the zero-alloc claim as a plain test so it
// holds on every `go test` run, not only when benchmarks are invoked: a
// steady-state full-image ReadStream and WriteStream must not allocate,
// under PMAC and HMAC alike.
func TestRealBenchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const size = 1 << 18
	for _, rm := range realMACs {
		t.Run(rm.name, func(t *testing.T) {
			sh, img := newStreamRigParams(t, realConfig(rm.mac, size), size, perf.Default())
			buf := make([]byte, size)
			if _, err := sh.ReadStream(0, buf); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.WriteStream(0, img); err != nil {
				t.Fatal(err)
			}
			// Averaging over many runs applies the same rounding -benchmem
			// does: the worker fan-out occasionally costs a runtime-internal
			// allocation (sudog churn under goroutine ping-pong), but any
			// *deterministic* per-op allocation shows up as >= 1.
			for name, op := range map[string]func(){
				"ReadStream":  func() { sh.ReadStream(0, buf) },
				"WriteStream": func() { sh.WriteStream(0, img) },
			} {
				if allocs := testing.AllocsPerRun(20, op); allocs >= 1 {
					t.Errorf("%s %s: %v allocs/op, want 0", name, rm.name, allocs)
				}
			}
		})
	}
}
