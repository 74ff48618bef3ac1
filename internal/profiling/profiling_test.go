package profiling

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestHarnessEndToEnd drives the full loop: start, a labelled and traced
// body, stop, and the four output files on disk.
func TestHarnessEndToEnd(t *testing.T) {
	if Enabled() {
		t.Fatal("profiling enabled before any harness started")
	}
	h, err := Start(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("harness active but Enabled() == false")
	}

	// The goroutine profile at debug=1 prints each goroutine group's
	// pprof labels, so the labels Do attached are visible from inside f.
	var goroutines bytes.Buffer
	Do(context.Background(), func() {
		Region(context.Background(), "test.region", func() {
			if err := pprof.Lookup("goroutine").WriteTo(&goroutines, 1); err != nil {
				t.Error(err)
			}
		})
	}, "test-label", "hot")
	if !strings.Contains(goroutines.String(), `"test-label":"hot"`) {
		t.Errorf("Do did not attach its pprof labels; goroutine profile:\n%s", goroutines.String())
	}

	if err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("Enabled() still true after Stop")
	}
	for _, p := range []string{h.CPUPath(), h.MutexPath(), h.BlockPath(), h.TracePath()} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("harness output %s missing or empty (err=%v)", filepath.Base(p), err)
		}
	}
}

// TestDoDisabledIsDirect checks the production fast path: with no harness,
// Do must run f synchronously and attach no labels.
func TestDoDisabledIsDirect(t *testing.T) {
	ran := false
	Do(context.Background(), func() { ran = true }, "k", "v")
	if !ran {
		t.Fatal("Do did not run f")
	}
	// Region with no active trace likewise passes straight through.
	ran = false
	Region(context.Background(), "r", func() { ran = true })
	if !ran {
		t.Fatal("Region did not run f")
	}
}
