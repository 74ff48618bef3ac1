package main

// Benchmark-trajectory support: `benchtab -json` converts `go test -bench`
// text output into a stable JSON document (the BENCH_pr.json artifact CI
// publishes on every PR), and `benchtab -check` compares such a document
// against the committed BENCH_baseline.json, failing when a headline
// simulated-throughput metric regresses beyond the threshold.
//
// Two families of metrics gate the build:
//
//   - Deterministic simulated metrics (the "sim-" family: sim-speedup-x,
//     sim-ops/sec-*, sim-stream-MiB/s) gate against the baseline: they come
//     from the cycle model, so they are immune to CI host noise.
//   - allocs/op of the real-throughput benchmarks (names containing
//     "Real") gates absolutely at zero: the steady-state seal/open window
//     loop is allocation-free by design, and any new per-op allocation is
//     a hot-path regression regardless of the host.
//
//   - Real wall-clock metrics (the "real-" family: real-stream-MB/s,
//     real-flush-MB/s, real-cluster-scale-x) gate with their own, looser
//     budget (-real-threshold): they vary with CI hardware, so the budget
//     absorbs host noise, but a floor keeps a real win from silently
//     rotting. real-cluster-scale-x additionally gates absolutely: the
//     8-shard/1-shard real throughput ratio must stay ≥ 2.0 regardless of
//     the baseline — that ratio is host-relative (both ends run on the
//     same machine), and it is the PR sequence's headline scaling claim.
//
//   - Overhead metrics gate with absolute ceilings (lower is better):
//     sim-region-lookup-overhead-pct must stay ≤ 5% — region resolution
//     on the burst-decode path has to stay O(1) however many tenant
//     zones are resident. Ceiling metrics are excluded from the
//     higher-is-better baseline comparison.
//
// Plain ns/op and ops/sec-* values are recorded in the artifacts for
// trend-watching only.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"shef/internal/analysis"
)

// BenchDoc is the JSON document of one benchmark run.
type BenchDoc struct {
	GeneratedBy string       `json:"generated_by"`
	Shefvet     *ShefvetInfo `json:"shefvet,omitempty"`
	Benchmarks  []BenchEntry `json:"benchmarks"`
}

// ShefvetInfo records, in the document header, which static-analysis
// suite the producing tree was checked with: benchmark numbers are only
// comparable when both trees satisfied the same invariants (zero-alloc
// hot paths, deterministic walk order), so the gate's identity travels
// with the artifact.
type ShefvetInfo struct {
	Version   string   `json:"version"`
	Analyzers []string `json:"analyzers"`
}

// BenchEntry is one benchmark's parsed result line.
type BenchEntry struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// parseBenchOutput converts `go test -bench` text into a BenchDoc. Lines
// it does not recognise (logs, PASS/ok, goos headers) are skipped.
func parseBenchOutput(r io.Reader) (*BenchDoc, error) {
	doc := &BenchDoc{
		GeneratedBy: "benchtab -json",
		Shefvet:     &ShefvetInfo{Version: analysis.Version, Analyzers: analysis.Names()},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		// Strip the GOMAXPROCS suffix (BenchmarkFoo-8) so names are
		// stable across runner shapes.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := BenchEntry{Name: name, Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			e.Metrics[fields[i+1]] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool { return doc.Benchmarks[i].key() < doc.Benchmarks[j].key() })
	return doc, nil
}

// key identifies a benchmark across documents: package-qualified, so
// same-named benchmarks in different packages never collide.
func (e BenchEntry) key() string { return e.Package + "." + e.Name }

// emitJSON runs the -json mode: stdin bench text to stdout JSON.
func emitJSON(r io.Reader, w io.Writer) error {
	doc, err := parseBenchOutput(r)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("benchtab -json: no benchmark lines found on stdin")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func loadBenchDoc(path string) (*BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// gatedMetric reports whether a metric name participates in the
// higher-is-better regression gate: deterministic simulated throughput
// or real wall-clock family. Ceiling-gated metrics are lower-is-better
// and are excluded — comparing them as throughput would flag an
// improvement (a drop) as a regression.
func gatedMetric(name string) bool {
	if ceilingMetric(name) {
		return false
	}
	return strings.HasPrefix(name, "sim-") || strings.HasPrefix(name, "real-")
}

// realMetric selects the real wall-clock family, which gates with the
// looser -real-threshold budget.
func realMetric(name string) bool {
	return strings.HasPrefix(name, "real-")
}

// floorGate is one absolute metric floor: a gate that holds baseline or
// no baseline, because the metric is host-relative (both ends of the
// ratio run on the same machine) and protects a headline claim.
type floorGate struct {
	metric string
	floor  float64
	what   string // what failing the floor means, for the regression line
}

// floorGates: real-cluster-scale-x is the scaling headline (8-shard real
// ops/sec must stay ≥ 2x the 1-shard rate); real-degraded-retain-x is
// the resilience headline (a replicated cluster with one shard crashed
// must retain ≥ 25% of its healthy throughput — degraded, not dead).
var floorGates = []floorGate{
	{"real-cluster-scale-x", 2.0, "real cluster throughput no longer scales with shards"},
	{"real-degraded-retain-x", 0.25, "single-node-failure throughput collapsed — degraded mode is not serving"},
}

// ceilingGate is one absolute metric ceiling: the lower-is-better dual
// of floorGate, for overhead metrics that must stay bounded.
type ceilingGate struct {
	metric  string
	ceiling float64
	what    string
}

// ceilingGates: the virtual-region lookup cache must keep per-access
// region resolution effectively free — the simulated lookup charge stays
// under 5% of the data-path cycles even with ~1k tenant zones resident.
var ceilingGates = []ceilingGate{
	{"sim-region-lookup-overhead-pct", 5.0, "region lookup is no longer O(1) — the TLB cache stopped absorbing multi-tenant table growth"},
}

// ceilingMetric reports whether a metric gates with an absolute ceiling
// (lower is better).
func ceilingMetric(name string) bool {
	for _, g := range ceilingGates {
		if g.metric == name {
			return true
		}
	}
	return false
}

// checkCeilings applies the absolute ceilings to the PR run. Like the
// floors, absence is a failure: a run that stopped measuring an overhead
// bound must not pass the gate that exists to enforce it.
func checkCeilings(pr *BenchDoc) (regressions, report []string) {
	for _, g := range ceilingGates {
		found := false
		for _, e := range pr.Benchmarks {
			v, ok := e.Metrics[g.metric]
			if !ok {
				continue
			}
			found = true
			if v > g.ceiling {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s = %.2f, ceiling %.2f — %s", e.key(), g.metric, v, g.ceiling, g.what))
			} else {
				report = append(report, fmt.Sprintf("%s %s: %.2f (ceiling %.2f)", e.Name, g.metric, v, g.ceiling))
			}
		}
		if !found {
			regressions = append(regressions, fmt.Sprintf(
				"%s missing from PR run — the benchmark did not report it; %s", g.metric, regenHint))
		}
	}
	return regressions, report
}

// regenHint is the remediation line for a missing gated metric.
const regenHint = "regenerate the PR document with `go test -bench . -benchmem ./... | benchtab -json > BENCH_pr.json`"

// checkFloors applies the absolute floors to the PR run. A floor
// metric's absence is a failure — a run that stopped measuring a
// headline must not pass the gate that exists to protect it — and the
// regression line carries the regeneration hint.
func checkFloors(pr *BenchDoc) (regressions, report []string) {
	for _, g := range floorGates {
		found := false
		for _, e := range pr.Benchmarks {
			v, ok := e.Metrics[g.metric]
			if !ok {
				continue
			}
			found = true
			if v < g.floor {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s = %.2f, floor %.2f — %s", e.key(), g.metric, v, g.floor, g.what))
			} else {
				report = append(report, fmt.Sprintf("%s %s: %.2f (floor %.2f)", e.Name, g.metric, v, g.floor))
			}
		}
		if !found {
			regressions = append(regressions, fmt.Sprintf(
				"%s missing from PR run — the benchmark did not report it; %s", g.metric, regenHint))
		}
	}
	return regressions, report
}

// allocGated reports whether a benchmark's allocs/op gates absolutely at
// zero: the real-throughput benchmarks exercise the Shield's steady-state
// seal/open window loop, which is allocation-free by design.
func allocGated(benchName string) bool {
	return strings.Contains(benchName, "Real")
}

// checkAllocs applies the absolute zero-alloc gate to a PR run: every
// alloc-gated benchmark must report allocs/op (so the bench run must use
// -benchmem) and it must be exactly zero. An absent metric fails the gate
// — unmeasured is indistinguishable from regressed.
func checkAllocs(pr *BenchDoc) (regressions, report []string) {
	for _, e := range pr.Benchmarks {
		if !allocGated(e.Name) {
			continue
		}
		v, ok := e.Metrics["allocs/op"]
		switch {
		case !ok:
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op not reported — run the bench with -benchmem", e.key()))
		case v != 0:
			regressions = append(regressions, fmt.Sprintf("%s: %g allocs/op, want 0 (steady-state window loop must not allocate)", e.key(), v))
		default:
			report = append(report, fmt.Sprintf("%s allocs/op: 0", e.Name))
		}
	}
	sort.Strings(regressions)
	sort.Strings(report)
	return regressions, report
}

// sortedGated returns an entry's gated metric names in stable order.
func (e BenchEntry) sortedGated() []string {
	var out []string
	for metric := range e.Metrics {
		if gatedMetric(metric) {
			out = append(out, metric)
		}
	}
	sort.Strings(out)
	return out
}

// checkRegression compares pr against baseline. It returns the list of
// human-readable regressions (empty means the gate passes), a report of
// every gated comparison for the CI log, and the gated metrics that
// appear in the PR run but not in the baseline (signalling the baseline
// wants regenerating so they gate future PRs). Every gated baseline
// metric must be present in the PR run: a benchmark or metric that
// disappears is a regression, never a silent pass — a vanished metric is
// indistinguishable from an unmeasured one.
func checkRegression(baseline, pr *BenchDoc, threshold, realThreshold float64) (regressions, report, newMetrics []string) {
	prByName := map[string]BenchEntry{}
	for _, e := range pr.Benchmarks {
		prByName[e.key()] = e
	}
	baseByName := map[string]BenchEntry{}
	for _, base := range baseline.Benchmarks {
		baseByName[base.key()] = base
		cur, ok := prByName[base.key()]
		for _, metric := range base.sortedGated() {
			baseVal := base.Metrics[metric]
			if !ok {
				regressions = append(regressions, fmt.Sprintf("%s: benchmark missing from PR run (baseline %s=%.3g)", base.key(), metric, baseVal))
				continue
			}
			curVal, have := cur.Metrics[metric]
			if !have {
				regressions = append(regressions, fmt.Sprintf("%s: metric %s missing from PR run (baseline %.3g)", base.key(), metric, baseVal))
				continue
			}
			if baseVal <= 0 {
				continue // present, but not comparable as higher-is-better
			}
			budget := threshold
			if realMetric(metric) {
				budget = realThreshold
			}
			ratio := curVal / baseVal
			line := fmt.Sprintf("%s %s: baseline %.3f, pr %.3f (%+.1f%%)", base.Name, metric, baseVal, curVal, (ratio-1)*100)
			report = append(report, line)
			if curVal < baseVal*(1-budget) {
				regressions = append(regressions, line+fmt.Sprintf(" — exceeds the %.0f%% regression budget", budget*100))
			}
		}
	}
	for _, cur := range pr.Benchmarks {
		base, ok := baseByName[cur.key()]
		for _, metric := range cur.sortedGated() {
			if _, have := base.Metrics[metric]; !ok || !have {
				newMetrics = append(newMetrics, fmt.Sprintf("%s %s=%.3g", cur.key(), metric, cur.Metrics[metric]))
			}
		}
	}
	sort.Strings(report)
	sort.Strings(regressions)
	sort.Strings(newMetrics)
	return regressions, report, newMetrics
}

// runCheck runs the -check mode and returns the process exit code.
func runCheck(baselinePath, prPath string, threshold, realThreshold float64, w io.Writer) int {
	baseline, err := loadBenchDoc(baselinePath)
	if err != nil {
		fmt.Fprintf(w, "benchtab -check: %v\n", err)
		return 2
	}
	pr, err := loadBenchDoc(prPath)
	if err != nil {
		fmt.Fprintf(w, "benchtab -check: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "benchtab -check: running under %s (%s)\n",
		analysis.Version, strings.Join(analysis.Names(), ", "))
	if pr.Shefvet != nil {
		fmt.Fprintf(w, "benchtab -check: PR document produced under %s (%s)\n",
			pr.Shefvet.Version, strings.Join(pr.Shefvet.Analyzers, ", "))
	}
	regressions, report, newMetrics := checkRegression(baseline, pr, threshold, realThreshold)
	allocRegressions, allocReport := checkAllocs(pr)
	regressions = append(regressions, allocRegressions...)
	floorRegressions, floorReport := checkFloors(pr)
	regressions = append(regressions, floorRegressions...)
	ceilRegressions, ceilReport := checkCeilings(pr)
	regressions = append(regressions, ceilRegressions...)
	fmt.Fprintf(w, "benchtab -check: %d gated metrics vs %s (sim budget %.0f%%, real budget %.0f%%), %d zero-alloc gates, %d absolute floors, %d absolute ceilings\n",
		len(report), baselinePath, threshold*100, realThreshold*100, len(allocReport), len(floorGates), len(ceilingGates))
	for _, line := range report {
		fmt.Fprintln(w, "  ", line)
	}
	for _, line := range allocReport {
		fmt.Fprintln(w, "  ", line)
	}
	for _, line := range floorReport {
		fmt.Fprintln(w, "  ", line)
	}
	for _, line := range ceilReport {
		fmt.Fprintln(w, "  ", line)
	}
	if len(newMetrics) > 0 {
		fmt.Fprintln(w, "NEW METRICS (in PR run, not in baseline — regenerate the baseline so they gate):")
		for _, line := range newMetrics {
			fmt.Fprintln(w, "  ", line)
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintln(w, "REGRESSIONS:")
		for _, r := range regressions {
			fmt.Fprintln(w, "  ", r)
		}
		return 1
	}
	fmt.Fprintln(w, "benchmark gate passed")
	return 0
}
