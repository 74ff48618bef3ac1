package profiling

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// burn spins real CPU work so the 100 Hz profiler collects samples; the
// returned value defeats dead-code elimination.
func burn(d time.Duration) uint64 {
	var acc uint64 = 0x9e3779b97f4a7c15
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<14; i++ {
			acc ^= acc<<13 ^ acc>>7 ^ uint64(i)
			acc *= 0x2545f4914f6cdd1d
		}
	}
	return acc
}

// TestHarnessEndToEnd drives the full loop: start, labelled CPU work,
// mutex contention, stop, parse, attribute.
func TestHarnessEndToEnd(t *testing.T) {
	if Enabled() {
		t.Fatal("profiling enabled before any harness started")
	}
	dir := t.TempDir()
	h, err := Start(Config{Dir: dir, MutexFraction: 1, BlockRate: 1, Trace: true, TopN: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("harness active but Enabled() == false")
	}

	var sink uint64
	Do(context.Background(), func() {
		Region(context.Background(), "test.burn", func() {
			sink = burn(400 * time.Millisecond)
		})
	}, "test-label", "hot")

	// Manufactured contention: hold a mutex while others queue on it.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				mu.Lock()
				time.Sleep(time.Millisecond)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

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

	tbl, err := h.Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.OnCPU) == 0 || tbl.CPUTotal == 0 {
		t.Fatalf("no CPU attribution despite %v of spinning (sink=%d)", 400*time.Millisecond, sink)
	}
	if len(tbl.OffCPU) == 0 || tbl.OffTotal == 0 {
		t.Fatal("no off-CPU attribution despite manufactured mutex contention")
	}
	var labelled bool
	for _, r := range tbl.CPUByLabel {
		if r.Label == "test-label=hot" {
			labelled = true
			if r.Nanos == 0 {
				t.Fatal("label present but credited no CPU time")
			}
		}
	}
	if !labelled {
		t.Fatalf("pprof label test-label=hot missing from table:\n%s", tbl)
	}
	// The rendered table is what benchtab -profile prints; smoke its shape.
	s := tbl.String()
	for _, want := range []string{"on-CPU", "off-CPU", "CPU time by label", "test-label=hot"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
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

func mkProfile(samples ...*Sample) *Profile {
	return &Profile{
		SampleTypes: []ValueType{{"samples", "count"}, {"cpu", "nanoseconds"}},
		Samples:     samples,
	}
}

// TestAttribution checks self-frame selection: CPU attributes to the
// leaf, off-CPU walks past the runtime's parking frames.
func TestAttribution(t *testing.T) {
	cpu := mkProfile(
		&Sample{Stack: []string{"crypto.work", "serve", "main"}, Values: []int64{3, 300},
			Labels: map[string]string{"sdp-shard": "3"}},
		&Sample{Stack: []string{"other.work", "main"}, Values: []int64{1, 100}},
	)
	block := &Profile{
		SampleTypes: []ValueType{{"contentions", "count"}, {"delay", "nanoseconds"}},
		Samples: []*Sample{
			{Stack: []string{"sync.(*Mutex).Lock", "sdp.(*Node).Put", "main"}, Values: []int64{5, 500}},
		},
	}
	tbl := Attribution(cpu, block, nil, 1)
	if tbl.OnCPU[0].Function != "crypto.work" || tbl.OnCPU[0].Nanos != 300 {
		t.Fatalf("on-CPU leader = %+v, want crypto.work/300", tbl.OnCPU[0])
	}
	if len(tbl.OnCPU) != 1 {
		t.Fatalf("topN=1 not applied: %d rows", len(tbl.OnCPU))
	}
	if tbl.OffCPU[0].Function != "sdp.(*Node).Put" {
		t.Fatalf("off-CPU attribution did not skip the runtime frame: %+v", tbl.OffCPU[0])
	}
	if tbl.CPUByLabel[0].Label != "sdp-shard=3" || tbl.CPUByLabel[0].Percent != 75 {
		t.Fatalf("label row = %+v, want sdp-shard=3 at 75%%", tbl.CPUByLabel[0])
	}
}

// TestParseProfileRejectsGarbage keeps the hand-rolled decoder honest on
// malformed input.
func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseProfile([]byte{0x0a}); err == nil {
		t.Fatal("truncated field accepted")
	}
	// Valid empty message parses to an empty profile.
	p, err := ParseProfile(nil)
	if err != nil || len(p.Samples) != 0 {
		t.Fatalf("empty profile: %v %+v", err, p)
	}
}
