package shield_test

import (
	"runtime"
	"testing"

	"shef/internal/accel"
	"shef/internal/perf"
	"shef/internal/shield"
)

// TestRunShieldedLeavesNoGoroutines: a Shield that accel.RunShielded
// drops without retiring its regions leaves nothing running, so repeated
// runs do not grow the goroutine count (and, through live goroutines,
// pin no DRAM).
func TestRunShieldedLeavesNoGoroutines(t *testing.T) {
	run := func() {
		w, err := accel.New("dnnweaver", map[string]string{"batch": "2"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := accel.RunShielded(w, accel.V128x16, perf.Default(), 21); err != nil {
			t.Fatal(err)
		}
	}
	run() // first use of any lazily started runtime or package state
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	if n := shield.SettledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after three more runs, %d before", n, before)
	}
}
