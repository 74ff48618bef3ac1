package accel

import (
	"runtime"
	"strconv"
	"testing"

	"shef/internal/perf"
)

// TestRunShieldedAllocBound: a shielded vecadd at 8 MiB per vector
// allocates at most 2.25x its three vectors in all. Its two inputs, the
// device memory holding the three sealed vectors and the opened output
// already come to 2x, so there is no room for a full-size owner-side
// sealed image or a raw DMA copy of the output.
func TestRunShieldedAllocBound(t *testing.T) {
	const n = 8 << 20
	w, err := New("vecadd", map[string]string{"bytes": strconv.Itoa(n)})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunShielded(w, V128x16, perf.Default(), 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*n)*9/4; got > limit {
		t.Errorf("RunShielded allocated %d bytes (%.2fx three vectors), want at most %d (2.25x)",
			got, float64(got)/float64(3*n), limit)
	}
}

// TestRunResultSeconds: a run's wall time is its total cycles at the
// model's 250 MHz clock.
func TestRunResultSeconds(t *testing.T) {
	r := RunResult{Cycles: 125_000_000, MemCycles: 1, ComputeCycles: 2}
	if got := r.Seconds(perf.Default()); got != 0.5 {
		t.Errorf("Seconds = %v, want 0.5", got)
	}
}
