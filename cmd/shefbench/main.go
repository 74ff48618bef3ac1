// Command shefbench is the repository's benchmark: four workloads a ShEF
// Data Owner runs — bulk Shield streams, SDP key-value storage, attested
// session set-up and shielded accelerator jobs — each measured end to end
// with tracing off, and layer by layer in a separate traced run, next to
// standard-library speed-of-light floors on the same bytes. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash cmd/shefbench/run.sh -seed 1                   # every workload
//	bash cmd/shefbench/run.sh -workload kv -trace 1     # one, traced
//	bash cmd/shefbench/run.sh -runs 10                  # spread per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads are the benchmark's workloads in run order; the names and the
// reasons each was chosen are in BENCHMARK.json.
var workloads = []struct {
	name string
	run  func(runConfig) (*run, error)
}{
	{"stream", runStream},
	{"kv", runKV},
	{"attest", runAttest},
	{"accel", runAccel},
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// each kind of run reports, with their units and regression bounds.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// list is the metrics a run of this kind publishes: every end-to-end
// metric untraced, every per-layer metric traced.
func (s *spec) list(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics listed", path)
	}
	return &s, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report builds the result line. A per-layer metric of a layer the
// workload never reaches reads 0.
func (s *spec) report(r *run, traced bool) (result, error) {
	out := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, sm := range s.list(traced) {
		m, ok := r.metrics[sm.Name]
		if !ok && !traced {
			return out, fmt.Errorf("end-to-end metric %q was not measured", sm.Name)
		}
		if ok && m.Unit != sm.Unit {
			return out, fmt.Errorf("metric %q measured in %s, BENCHMARK.json says %s", sm.Name, m.Unit, sm.Unit)
		}
		out.Metrics[sm.Name] = metric{Value: m.Value, Unit: sm.Unit}
	}
	return out, nil
}

// finishTrace reports what every traced run reports: how much of the op
// spans their children cover, the self-time table, the reference ops
// (run as a block when the workload did not interleave them) and the
// span file.
func finishTrace(rc runConfig, res *run, ts *traceSet) error {
	if _, ok := ts.layers["ref.floor.ctr"]; !ok {
		t := newTracer(time.Now(), 99)
		n := 16
		if rc.smoke {
			n = 1
		}
		if err := refBlock(t, n, rc.seed); err != nil {
			return fmt.Errorf("reference ops: %w", err)
		}
		refMetrics(res, mergeTracers(t), 1<<20)
	}
	res.set("trace.coverage", "ratio", ts.coverage())
	res.notes = append(res.notes, ts.table()...)
	n, err := ts.write(rc.spans)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s, %d aggregated only", n, rc.spans, ts.dropped()))
	return nil
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("shefbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (stream, kv, attest, accel) in this process; default: each in a child process")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: traced run, report per-layer metrics and write spans")
	spans := fs.String("spans", "", "span file of a traced -workload run (default .bench_build/spans-<workload>.csv)")
	scale := fs.String("scale", "full", "full, or smoke: tiny fixed-count inputs for tests")
	runs := fs.Int("runs", 0, "run every workload this many times (seeds seed, seed+1, ...) and print each metric's median and quartiles")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description listing the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shefbench:", err)
		return 2
	}
	if *scale != "full" && *scale != "smoke" || *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "shefbench: want -scale full|smoke and -trace 0|1, got %q and %d\n", *scale, *trace)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, smoke: *scale == "smoke"}
	fmt.Fprintln(stdout, provenance(rc, *workload))
	if *workload == "" {
		return runChildren(s, rc, *specPath, *runs, stdout)
	}
	for _, w := range workloads {
		if w.name != *workload {
			continue
		}
		if rc.spans == "" {
			rc.spans = filepath.Join(".bench_build", "spans-"+w.name+".csv")
		}
		out, err := runOne(s, w.run, rc, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shefbench: %s: %v\n", w.name, err)
			return 2
		}
		if !out.Correct {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "shefbench: unknown workload %q\n", *workload)
	return 2
}

// runOne runs a workload in this process and prints its metrics, one per
// line, then the result line.
func runOne(s *spec, fn func(runConfig) (*run, error), rc runConfig, stdout io.Writer) (result, error) {
	r, err := fn(rc)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	r.set("peak_rss_MiB", "MiB", rss)
	r.set("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	out, err := s.report(r, rc.trace)
	if err != nil {
		return result{}, err
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, l := range r.notes {
		fmt.Fprintln(stdout, l)
	}
	if r.firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", r.firstErr)
	}
	for _, w := range r.wrong {
		fmt.Fprintf(stdout, "WRONG: %s\n", w)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, string(line))
	return out, nil
}

// provenance is the header line stamping the host and the build.
func provenance(rc runConfig, workload string) string {
	cpu, flags := "unknown", map[string]bool{}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(l, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				cpu = strings.TrimSpace(v)
			case "flags":
				for _, f := range strings.Fields(v) {
					flags[f] = true
				}
			}
		}
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				rev = st.Value
			case "vcs.modified":
				if st.Value == "true" {
					rev += "+dirty"
				}
			}
		}
	}
	if workload == "" {
		workload = "all"
	}
	scale := "full"
	if rc.smoke {
		scale = "smoke"
	}
	return fmt.Sprintf("# shefbench cpu=%q nproc=%d gomaxprocs=%d go=%s aes=%t sha_ni=%t rev=%s seed=%d workload=%s seconds=%g trace=%t scale=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), flags["aes"], flags["sha_ni"], rev,
		rc.seed, workload, rc.seconds, rc.trace, scale)
}
