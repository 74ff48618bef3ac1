package shield

import (
	"runtime"
	"testing"
)

// settledGoroutines samples runtime.NumGoroutine until it is at most
// limit, yielding the processor between samples so goroutines that are
// already on their way out (a multi-region Flush's per-set goroutines)
// can exit. The wait is bounded in samples, not time; it returns the last
// count.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > limit; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// SettledGoroutines exports settledGoroutines to the package's external
// tests.
var SettledGoroutines = settledGoroutines

// TestDataPathStartsNoGoroutines pins that a window's seal and open run
// on the calling goroutine: streams, a prefetching chunked read and a
// single-region Flush on a fresh Shield leave the goroutine count where
// it was.
func TestDataPathStartsNoGoroutines(t *testing.T) {
	const size = 64 << 10
	sh, img := newPrefetchRig(t, size, true)
	before := runtime.NumGoroutine()
	buf := make([]byte, size)
	for _, step := range []struct {
		name string
		op   func() error
	}{
		{"ReadStream", func() error { _, err := sh.ReadStream(0, buf); return err }},
		{"WriteStream", func() error { _, err := sh.WriteStream(0, img); return err }},
		{"prefetching chunked read", func() error { chunkAtATime(t, sh, img); return nil }},
		{"Flush", func() error {
			if _, err := sh.WriteBurst(0, img[:8*512]); err != nil {
				return err
			}
			return sh.Flush()
		}},
	} {
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("%s: %d goroutines after, %d before", step.name, n, before)
		}
	}
	if rs := sh.Report().Regions[0]; rs.Prefetched == 0 || rs.BatchedWritebacks == 0 {
		t.Fatalf("prefetch or batched write-back never ran: %+v", rs)
	}
}
