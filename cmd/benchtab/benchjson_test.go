package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: shef/internal/shield
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkStreamVsChunked/1MiB-8         	       1	  16770391 ns/op	  62.53 MB/s	         2.346 sim-speedup-x	      2892 sim-stream-MiB/s
--- BENCH: BenchmarkStreamVsChunked/1MiB
    stream_test.go:449: chunked 202752 cyc vs streamed 86436 cyc
PASS
ok  	shef/internal/shield	0.365s
pkg: shef
BenchmarkClusterThroughput-8 	       1	 33061913 ns/op	    331057 sim-ops/sec-4shard
ok  	shef	1.2s
`

func TestParseBenchOutput(t *testing.T) {
	doc, err := parseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	byName := map[string]BenchEntry{}
	for _, e := range doc.Benchmarks {
		byName[e.Name] = e
	}
	st, ok := byName["BenchmarkStreamVsChunked/1MiB"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", byName)
	}
	if st.Package != "shef/internal/shield" {
		t.Errorf("package = %q", st.Package)
	}
	if st.Metrics["sim-speedup-x"] != 2.346 || st.Metrics["ns/op"] != 16770391 {
		t.Errorf("metrics = %v", st.Metrics)
	}
	if byName["BenchmarkClusterThroughput"].Metrics["sim-ops/sec-4shard"] != 331057 {
		t.Error("cluster metric lost")
	}
}

func TestCheckRegressionGate(t *testing.T) {
	base := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "A", Metrics: map[string]float64{"sim-speedup-x": 2.0, "ns/op": 100}},
		{Name: "B", Metrics: map[string]float64{"sim-ops/sec-4shard": 1000}},
	}}
	// Within budget: 10% down on one gated metric, host noise ignored.
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "A", Metrics: map[string]float64{"sim-speedup-x": 1.8, "ns/op": 900}},
		{Name: "B", Metrics: map[string]float64{"sim-ops/sec-4shard": 1500}},
	}}
	if regs, _, _ := checkRegression(base, pr, 0.20, 0.50); len(regs) != 0 {
		t.Fatalf("within-budget run flagged: %v", regs)
	}
	// Beyond budget: 30% down must fail.
	pr.Benchmarks[0].Metrics["sim-speedup-x"] = 1.4
	regs, _, _ := checkRegression(base, pr, 0.20, 0.50)
	if len(regs) != 1 || !strings.Contains(regs[0], "sim-speedup-x") {
		t.Fatalf("regression not flagged: %v", regs)
	}
	// A benchmark vanishing from the PR run is a regression too.
	pr.Benchmarks = pr.Benchmarks[1:]
	if regs, _, _ := checkRegression(base, pr, 0.20, 0.50); len(regs) == 0 {
		t.Fatal("missing benchmark not flagged")
	}
}

func TestCheckFailsWhenGatedMetricDisappears(t *testing.T) {
	base := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "A", Metrics: map[string]float64{"sim-flush-speedup-x": 2.1, "sim-flush-MiB/s": 3000, "ns/op": 100}},
	}}
	// The benchmark still runs, but one gated metric vanished (e.g. the
	// ReportMetric call was dropped): the gate must fail, not silently
	// pass, and must name every vanished metric.
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "A", Metrics: map[string]float64{"sim-flush-MiB/s": 3000, "ns/op": 90}},
	}}
	regs, _, _ := checkRegression(base, pr, 0.20, 0.50)
	if len(regs) != 1 || !strings.Contains(regs[0], "sim-flush-speedup-x") || !strings.Contains(regs[0], "missing") {
		t.Fatalf("vanished metric not flagged: %v", regs)
	}
	// Both gated metrics vanish along with a whole benchmark: one
	// regression line per metric, none silently dropped.
	pr.Benchmarks = nil
	regs, _, _ = checkRegression(base, pr, 0.20, 0.50)
	if len(regs) != 2 {
		t.Fatalf("want one regression per vanished gated metric, got %v", regs)
	}
	// A non-gated metric vanishing (host noise) is not a failure.
	pr.Benchmarks = []BenchEntry{{Name: "A", Metrics: map[string]float64{"sim-flush-speedup-x": 2.1, "sim-flush-MiB/s": 3000}}}
	if regs, _, _ := checkRegression(base, pr, 0.20, 0.50); len(regs) != 0 {
		t.Fatalf("vanished ns/op flagged: %v", regs)
	}
}

func TestCheckAllocsGate(t *testing.T) {
	// A clean run: real benchmarks report zero allocs, others are exempt.
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "BenchmarkRealReadStream/hardware", Metrics: map[string]float64{"allocs/op": 0, "real-stream-MB/s": 1200}},
		{Name: "BenchmarkRealFlush/scalar", Metrics: map[string]float64{"allocs/op": 0, "real-flush-MB/s": 300}},
		{Name: "BenchmarkStreamVsChunked/1MiB", Metrics: map[string]float64{"allocs/op": 12, "sim-speedup-x": 2.3}},
	}}
	regs, report := checkAllocs(pr)
	if len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
	if len(report) != 2 {
		t.Fatalf("report = %v, want both Real benchmarks listed", report)
	}
	// Any allocation in a Real benchmark fails absolutely.
	pr.Benchmarks[0].Metrics["allocs/op"] = 2
	if regs, _ := checkAllocs(pr); len(regs) != 1 || !strings.Contains(regs[0], "2 allocs/op") {
		t.Fatalf("allocating Real benchmark not flagged: %v", regs)
	}
	// A Real benchmark run without -benchmem fails too: unmeasured is
	// indistinguishable from regressed.
	delete(pr.Benchmarks[0].Metrics, "allocs/op")
	if regs, _ := checkAllocs(pr); len(regs) != 1 || !strings.Contains(regs[0], "-benchmem") {
		t.Fatalf("unmeasured Real benchmark not flagged: %v", regs)
	}
}

func TestParseBenchmem(t *testing.T) {
	// -benchmem appends B/op and allocs/op pairs; the real benchmarks add
	// a real-stream-MB/s metric. All must survive the round trip.
	const line = `pkg: shef/internal/shield
BenchmarkRealReadStream/hardware-4   	     100	   1081592 ns/op	 969.45 MB/s	       969.5 real-stream-MB/s	       0 B/op	       0 allocs/op
`
	doc, err := parseBenchOutput(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	e := doc.Benchmarks[0]
	if e.Name != "BenchmarkRealReadStream/hardware" {
		t.Errorf("name = %q", e.Name)
	}
	m := e.Metrics
	if m["real-stream-MB/s"] != 969.5 || m["allocs/op"] != 0 || m["B/op"] != 0 {
		t.Errorf("metrics = %v", m)
	}
	if !allocGated(e.Name) {
		t.Error("real benchmark not alloc-gated")
	}
	if allocGated("BenchmarkStreamVsChunked/1MiB") {
		t.Error("sim benchmark alloc-gated")
	}
}

func TestCheckRealFamilyBudget(t *testing.T) {
	base := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "BenchmarkRealReadStream", Metrics: map[string]float64{"real-stream-MB/s": 1000}},
		{Name: "A", Metrics: map[string]float64{"sim-speedup-x": 2.0}},
	}}
	// 40% down on a real- metric: inside the loose wall-clock budget,
	// but the same drop on a sim- metric would fail — the families gate
	// with different budgets.
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "BenchmarkRealReadStream", Metrics: map[string]float64{"real-stream-MB/s": 600}},
		{Name: "A", Metrics: map[string]float64{"sim-speedup-x": 2.0}},
	}}
	if regs, _, _ := checkRegression(base, pr, 0.20, 0.50); len(regs) != 0 {
		t.Fatalf("within-real-budget run flagged: %v", regs)
	}
	// 60% down breaches even the loose budget: the floor holds.
	pr.Benchmarks[0].Metrics["real-stream-MB/s"] = 400
	regs, _, _ := checkRegression(base, pr, 0.20, 0.50)
	if len(regs) != 1 || !strings.Contains(regs[0], "real-stream-MB/s") {
		t.Fatalf("real-family floor not enforced: %v", regs)
	}
	// A vanished real- metric fails like a vanished sim- one.
	delete(pr.Benchmarks[0].Metrics, "real-stream-MB/s")
	if regs, _, _ := checkRegression(base, pr, 0.20, 0.50); len(regs) != 1 {
		t.Fatalf("vanished real metric not flagged: %v", regs)
	}
}

func TestCheckFloors(t *testing.T) {
	// Healthy scaling and degraded retention pass and are reported.
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "BenchmarkClusterThroughput", Metrics: map[string]float64{"real-cluster-scale-x": 5.4}},
		{Name: "BenchmarkClusterDegraded", Metrics: map[string]float64{"real-degraded-retain-x": 0.8}},
	}}
	regs, report := checkFloors(pr)
	if len(regs) != 0 || len(report) != 2 {
		t.Fatalf("healthy floors: regs=%v report=%v", regs, report)
	}
	// Flat scaling fails absolutely, baseline or not.
	pr.Benchmarks[0].Metrics["real-cluster-scale-x"] = 1.3
	if regs, _ := checkFloors(pr); len(regs) != 1 || !strings.Contains(regs[0], "floor") {
		t.Fatalf("flat scaling not flagged: %v", regs)
	}
	// Collapsed degraded-mode throughput fails the same way.
	pr.Benchmarks[0].Metrics["real-cluster-scale-x"] = 5.4
	pr.Benchmarks[1].Metrics["real-degraded-retain-x"] = 0.05
	if regs, _ := checkFloors(pr); len(regs) != 1 || !strings.Contains(regs[0], "real-degraded-retain-x") {
		t.Fatalf("collapsed degraded throughput not flagged: %v", regs)
	}
	// Not measuring a floor metric fails too — with the remediation hint
	// telling the operator how to regenerate the PR document.
	pr.Benchmarks[1].Metrics["real-degraded-retain-x"] = 0.8
	delete(pr.Benchmarks[0].Metrics, "real-cluster-scale-x")
	regs, _ = checkFloors(pr)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("unmeasured scaling not flagged: %v", regs)
	}
	if !strings.Contains(regs[0], "-json") {
		t.Fatalf("missing-floor regression lacks the regenerate hint: %v", regs)
	}
}

func TestCheckCeilings(t *testing.T) {
	// A bounded lookup overhead passes and is reported.
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "BenchmarkRegionLookupScaling", Metrics: map[string]float64{"sim-region-lookup-overhead-pct": 0.16}},
	}}
	regs, report := checkCeilings(pr)
	if len(regs) != 0 || len(report) != 1 {
		t.Fatalf("healthy ceiling: regs=%v report=%v", regs, report)
	}
	// Overhead past the ceiling fails absolutely.
	pr.Benchmarks[0].Metrics["sim-region-lookup-overhead-pct"] = 7.2
	if regs, _ := checkCeilings(pr); len(regs) != 1 || !strings.Contains(regs[0], "ceiling") {
		t.Fatalf("over-ceiling overhead not flagged: %v", regs)
	}
	// Not measuring the overhead fails with the regenerate hint.
	delete(pr.Benchmarks[0].Metrics, "sim-region-lookup-overhead-pct")
	regs, _ = checkCeilings(pr)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") || !strings.Contains(regs[0], "-json") {
		t.Fatalf("unmeasured overhead not flagged: %v", regs)
	}
}

func TestCeilingMetricExcludedFromRegressionGate(t *testing.T) {
	if gatedMetric("sim-region-lookup-overhead-pct") {
		t.Fatal("ceiling metric must not gate higher-is-better")
	}
	if !gatedMetric("sim-region-lookup-hit-pct") {
		t.Fatal("hit-rate metric should gate higher-is-better")
	}
	// An overhead improvement (a drop) must not read as a throughput
	// regression against the baseline.
	base := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "BenchmarkRegionLookupScaling", Metrics: map[string]float64{"sim-region-lookup-overhead-pct": 2.0}},
	}}
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "BenchmarkRegionLookupScaling", Metrics: map[string]float64{"sim-region-lookup-overhead-pct": 0.1}},
	}}
	if regs, _, _ := checkRegression(base, pr, 0.20, 0.50); len(regs) != 0 {
		t.Fatalf("overhead improvement flagged as regression: %v", regs)
	}
}

func TestCheckListsNewMetrics(t *testing.T) {
	base := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "A", Metrics: map[string]float64{"sim-speedup-x": 2.0}},
	}}
	pr := &BenchDoc{Benchmarks: []BenchEntry{
		{Name: "A", Metrics: map[string]float64{"sim-speedup-x": 2.1, "sim-prefetch-speedup-x": 1.9, "ns/op": 50}},
		{Name: "C", Metrics: map[string]float64{"sim-flush-speedup-x": 2.1, "MB/s": 80}},
	}}
	regs, _, newM := checkRegression(base, pr, 0.20, 0.50)
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	// Gated metrics new to the PR run are listed (and only gated ones):
	// the report tells the operator the baseline wants regenerating.
	if len(newM) != 2 {
		t.Fatalf("new metrics = %v, want the two new sim-* entries", newM)
	}
	for _, want := range []string{"sim-prefetch-speedup-x", "sim-flush-speedup-x"} {
		found := false
		for _, line := range newM {
			if strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("new metric %s not listed in %v", want, newM)
		}
	}
}
