package shield

import (
	"bytes"
	"runtime"
	"testing"
)

// settledGoroutines samples runtime.NumGoroutine until it is at most
// limit, yielding the processor between samples so goroutines that are
// already on their way out (a multi-region Flush's per-set goroutines, a
// split's helpers after their last piece) can exit. The wait is bounded
// in samples, not time; it returns the last count. Under the race
// detector at four Ps on a two-CPU host, a helper's exit outlasted 1000
// samples in about one run in ten; a leaked goroutine still fails after
// 100000.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > limit; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// SettledGoroutines exports settledGoroutines to the package's external
// tests.
var SettledGoroutines = settledGoroutines

// TestDataPathStartsNoGoroutines pins that the data path leaves no
// goroutine running: a 64 KiB stream, a prefetching chunked read and a
// single-region Flush run on the calling goroutine, and a 1 MiB stream
// splits each batch's chunk crypto across workers that have exited by the
// time the call returns (at four Ps; at one P the split runs inline). On
// a fresh Shield, every step leaves the goroutine count where it was.
func TestDataPathStartsNoGoroutines(t *testing.T) {
	const size = 64 << 10
	sh, img := newPrefetchRig(t, size, true)
	big, bigImg := newStreamRig(t, 1<<20)
	bigBuf := make([]byte, len(bigImg))
	atProcs := func(procs int, op func() error) func() error {
		return func() error {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return op()
		}
	}
	bigRead := func() error { _, err := big.ReadStream(0, bigBuf); return err }
	bigWrite := func() error { _, err := big.WriteStream(0, bigImg); return err }
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
		{"1 MiB ReadStream at 1 P", atProcs(1, bigRead)},
		{"1 MiB WriteStream at 1 P", atProcs(1, bigWrite)},
		{"1 MiB ReadStream at 4 Ps", atProcs(4, bigRead)},
		{"1 MiB WriteStream at 4 Ps", atProcs(4, bigWrite)},
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
	if !bytes.Equal(bigBuf, bigImg) {
		t.Fatal("1 MiB streamed read returned the wrong bytes")
	}
}
