package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one workload invocation. The seed is the only source of
// the workload's inputs; smoke scale shrinks every geometry and replaces
// the wall-clock budget with fixed op counts, so simulated counters repeat
// exactly between runs.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
	smoke   bool
}

// budget bounds a measured phase: a wall-clock deadline, or at smoke
// scale an exact op count.
type budget struct {
	deadline time.Time
	ops      int
}

func (rc runConfig) budget(share float64, smokeOps int) budget {
	if rc.smoke {
		return budget{ops: smokeOps}
	}
	return budget{deadline: time.Now().Add(time.Duration(rc.seconds * share * float64(time.Second)))}
}

// split divides the budget between n closed-loop clients.
func (b budget) split(n int) budget {
	if b.ops > 0 {
		b.ops = (b.ops + n - 1) / n
	}
	return b
}

func (b budget) more(done int) bool {
	if b.ops > 0 {
		return done < b.ops
	}
	return time.Now().Before(b.deadline)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is what one workload invocation measured and checked.
type run struct {
	attempted, failed int
	// firstErr is the first failed operation's error.
	firstErr error
	// wrong lists correctness violations: data an oracle rejected.
	wrong   []string
	metrics map[string]metric
	// notes are extra human-readable lines (the per-layer self-time table).
	notes []string
}

func newRun() *run { return &run{metrics: make(map[string]metric)} }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail counts a failed operation.
func (r *run) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// violate records wrong data.
func (r *run) violate(format string, args ...any) {
	if len(r.wrong) < 8 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// merge folds a client's counters into r.
func (r *run) merge(o *run) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	for _, w := range o.wrong {
		r.violate("%s", w)
	}
}

// series is one latency distribution in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile is the nearest-rank q-quantile (0 for an empty series).
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(series(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s series) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// timeSetup builds a workload's state several times, timing each build,
// and keeps the last one: set-up cost is reported as a median so work
// moved into set-up shows. Full scale builds at least five times and
// until a second of set-up has accumulated (at most 15); smoke scale
// builds once. Earlier builds are closed and collected before the next
// starts, so peak memory reflects one live instance.
func timeSetup[T any](rc runConfig, build func() (T, error), closeFn func(T) error) (T, float64, error) {
	var last, zero T
	var secs series
	for i := 0; i == 0 || !rc.smoke && i < 15 && (i < 5 || secs.sum() < 1); i++ {
		if i > 0 {
			if err := closeFn(last); err != nil {
				return zero, 0, err
			}
			last = zero
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, secs.quantile(0.5), nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// latencyMetrics reports a series' median and 99th percentile under a
// metric prefix ("" for the op as a whole, "read_"/"write_" per kind).
func (r *run) latencyMetrics(prefix string, s series) {
	r.set(prefix+"p50_ms", "ms", s.quantile(0.50))
	r.set(prefix+"p99_ms", "ms", s.quantile(0.99))
}

// rate reports ops_per_s from the completion times of a phase's ops
// (offsets from the phase's start): the median rate over ten consecutive
// groups of equally many ops, so a burst of interference from outside
// the benchmark slows a few groups and leaves the median alone.
func (r *run) rate(done []time.Duration) {
	d := append([]time.Duration(nil), done...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	const groups = 10
	var rates series
	for g := 0; g < groups && len(d) >= groups; g++ {
		lo, hi := g*len(d)/groups, (g+1)*len(d)/groups
		from := time.Duration(0)
		if lo > 0 {
			from = d[lo-1]
		}
		rates = append(rates, float64(hi-lo)/(d[hi-1]-from).Seconds())
	}
	if len(rates) == 0 && len(d) > 0 {
		rates = append(rates, float64(len(d))/d[len(d)-1].Seconds())
	}
	r.set("ops_per_s", "1/s", rates.quantile(0.5))
}

// ratio guards a division whose denominator may be zero (a layer the
// phase never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
