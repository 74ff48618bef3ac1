// Package profiling is the repo's on/off-CPU profiling harness: it wraps
// any benchmark or serving run with CPU, mutex, and block profiles plus a
// runtime/trace, and labels the hot paths (operation, shard, session)
// through pprof.Do. It writes the profiles and leaves reading them to
// `go tool pprof` and `go tool trace`.
//
// The package is also the instrumentation switchboard: the serving-path
// packages (sdp, hostapp, attest) call Do/Region on their hot paths, and
// those calls compile down to a single atomic load when no harness is
// active, so the zero-alloc steady-state loops stay zero-alloc and label
// plumbing costs nothing in production.
//
// Operationally the harness surfaces in two places: `benchtab -profile`
// runs it over the cluster sweeps and prints the `go tool pprof` commands
// that read its files, and `shefd -debug addr` serves the live
// net/http/pprof endpoints the same profiles come from.
package profiling

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync/atomic"
)

// enabled gates every instrumentation site. It is package-global —
// profiling a process, not an object — and flipped only by Start/Stop.
var enabled atomic.Bool

// Enabled reports whether a harness is active. Instrumented hot paths
// check it before building labels so the disabled cost is one atomic
// load and a predicted branch.
func Enabled() bool { return enabled.Load() }

// Do runs f under the given pprof label pairs (key, value, key, value...)
// when a harness is active, attributing f's CPU samples to the labels;
// with no harness it calls f directly. The label set is built only on the
// enabled path, so callers may pass freshly formatted values without
// imposing allocations on production traffic.
func Do(ctx context.Context, f func(), kv ...string) {
	if !enabled.Load() {
		f()
		return
	}
	pprof.Do(ctx, pprof.Labels(kv...), func(context.Context) { f() })
}

// Region runs f inside a runtime/trace region when tracing is active,
// so the execution trace shows the serving phases by name. Without an
// active trace it calls f directly.
func Region(ctx context.Context, name string, f func()) {
	if !trace.IsEnabled() {
		f()
		return
	}
	trace.WithRegion(ctx, name, f)
}

// The harness's sampling rates: one in mutexFraction mutex contention
// events (runtime.SetMutexProfileFraction semantics), and every blocking
// event of at least blockRate nanoseconds, shorter ones proportionally
// (runtime.SetBlockProfileRate semantics).
const (
	mutexFraction = 5
	blockRate     = 10_000
)

// Harness is one active profiling window. Exactly one may run at a time
// (CPU profiling is process-global).
type Harness struct {
	dir       string
	cpuF      *os.File
	traceF    *os.File
	prevMutex int
	stopped   bool
}

// Start opens a profiling window: mutex and block sampling on, CPU
// profile streaming to dir/cpu.pprof, an execution trace to
// dir/trace.out, and every Do site in the process now labelling its
// samples. dir is created if missing.
func Start(dir string) (*Harness, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h := &Harness{dir: dir}
	h.prevMutex = runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRate)
	var err error
	if h.cpuF, err = os.Create(h.CPUPath()); err != nil {
		h.restoreRates()
		return nil, err
	}
	if err := pprof.StartCPUProfile(h.cpuF); err != nil {
		h.cpuF.Close()
		h.restoreRates()
		return nil, fmt.Errorf("profiling: %w (another profile running?)", err)
	}
	if h.traceF, err = os.Create(h.TracePath()); err == nil {
		if err = trace.Start(h.traceF); err != nil {
			h.traceF.Close()
		}
	}
	if err != nil {
		pprof.StopCPUProfile()
		h.cpuF.Close()
		h.restoreRates()
		return nil, err
	}
	enabled.Store(true)
	return h, nil
}

// CPUPath, MutexPath, BlockPath, and TracePath name the harness's output
// files inside the directory passed to Start.
func (h *Harness) CPUPath() string   { return filepath.Join(h.dir, "cpu.pprof") }
func (h *Harness) MutexPath() string { return filepath.Join(h.dir, "mutex.pprof") }
func (h *Harness) BlockPath() string { return filepath.Join(h.dir, "block.pprof") }
func (h *Harness) TracePath() string { return filepath.Join(h.dir, "trace.out") }

func (h *Harness) restoreRates() {
	runtime.SetMutexProfileFraction(h.prevMutex)
	runtime.SetBlockProfileRate(0)
}

// Stop closes the window: CPU profile finalised, mutex/block profiles
// snapshotted to their files, trace stopped, sampling rates restored,
// labels off. Calls after the first do nothing.
func (h *Harness) Stop() error {
	if h.stopped {
		return nil
	}
	h.stopped = true
	enabled.Store(false)
	pprof.StopCPUProfile()
	err := h.cpuF.Close()
	trace.Stop()
	if e := h.traceF.Close(); err == nil {
		err = e
	}
	// The mutex/block snapshots are cumulative since Start set the rates
	// (they were off before), so the files cover exactly this window.
	for _, p := range []struct{ name, path string }{
		{"mutex", h.MutexPath()},
		{"block", h.BlockPath()},
	} {
		f, e := os.Create(p.path)
		if e == nil {
			e = pprof.Lookup(p.name).WriteTo(f, 0)
			if ce := f.Close(); e == nil {
				e = ce
			}
		}
		if err == nil {
			err = e
		}
	}
	h.restoreRates()
	return err
}
