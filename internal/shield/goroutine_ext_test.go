package shield_test

import (
	"runtime"
	"testing"

	"shef/internal/accel"
	"shef/internal/perf"
	"shef/internal/shield"
)

// leakDesigns are the accelerators the goroutine tests run: dnnweaver
// streams through the Shield's windows, and conv and dnnweaver split
// their MAC loops across workers.
var leakDesigns = []struct {
	name   string
	params map[string]string
}{
	{"conv", map[string]string{"cin": "8", "cout": "16", "batch": "1"}},
	{"dnnweaver", map[string]string{"batch": "2"}},
}

// assertNoGoroutineGrowth runs run once to start any lazily started
// runtime or package state, then three more times, and fails if the
// goroutine count grew.
func assertNoGoroutineGrowth(t *testing.T, run func(w accel.Workload) error) {
	t.Helper()
	runAll := func() {
		for _, d := range leakDesigns {
			w, err := accel.New(d.name, d.params)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	runAll()
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		runAll()
	}
	runtime.GC()
	if n := shield.SettledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after three more runs, %d before", n, before)
	}
}

// TestRunShieldedLeavesNoGoroutines: a Shield that accel.RunShielded
// drops without retiring its regions leaves nothing running, so repeated
// runs do not grow the goroutine count (and, through live goroutines,
// pin no DRAM).
func TestRunShieldedLeavesNoGoroutines(t *testing.T) {
	assertNoGoroutineGrowth(t, func(w accel.Workload) error {
		_, err := accel.RunShielded(w, accel.V128x16, perf.Default(), 21)
		return err
	})
}

// TestRunBareLeavesNoGoroutines: the workers of the split conv and
// dnnweaver kernels have exited once accel.RunBare returns, at four Ps.
func TestRunBareLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	assertNoGoroutineGrowth(t, func(w accel.Workload) error {
		_, err := accel.RunBare(w, perf.Default(), 21)
		return err
	})
}
