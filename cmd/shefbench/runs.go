package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// child runs one workload in a fresh process of this binary, relaying its
// output when relay is set, and returns its result line.
func child(rc runConfig, specPath, workload string, relay io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace, scale := "0", "full"
	if rc.trace {
		trace = "1"
	}
	if rc.smoke {
		scale = "smoke"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(rc.seed, 10),
		"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", trace, "-scale", scale, "-spec", specPath}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	last := ""
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		last = sc.Text()
		if relay != nil {
			fmt.Fprintln(relay, last)
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil && scanErr == nil {
		scanErr = err
	}
	var out result
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return result{}, fmt.Errorf("%s: no result line (%v)", workload, scanErr)
	}
	return out, nil
}

// runChildren runs every workload in its own process: once each, printing
// their output and a combined result line, or -runs times each, printing
// every metric's median, quartiles and spread against its bound.
func runChildren(s *spec, rc runConfig, specPath string, runs int, stdout io.Writer) int {
	if runs <= 0 {
		all := result{Correct: true, Metrics: make(map[string]metric)}
		code := 0
		for _, w := range workloads {
			out, err := child(rc, specPath, w.name, stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "shefbench:", err)
				code = 2
				continue
			}
			all.Correct = all.Correct && out.Correct
			all.Attempted += out.Attempted
			all.Failed += out.Failed
			for n, m := range out.Metrics {
				all.Metrics[w.name+"."+n] = m
			}
		}
		if !all.Correct && code == 0 {
			code = 1
		}
		// Every value was parsed from a child's JSON, so it marshals.
		line, _ := json.Marshal(all)
		fmt.Fprintln(stdout, string(line))
		return code
	}

	summary := result{Correct: true, Metrics: make(map[string]metric)}
	code := 0
	fmt.Fprintf(stdout, "%-8s %-40s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "")
	for _, w := range workloads {
		values := make(map[string][]float64)
		units := make(map[string]string)
		for i := 0; i < runs; i++ {
			c := rc
			c.seed = rc.seed + int64(i)
			out, err := child(c, specPath, w.name, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "shefbench:", err)
				code = 2
				continue
			}
			summary.Correct = summary.Correct && out.Correct
			summary.Attempted += out.Attempted
			summary.Failed += out.Failed
			for n, m := range out.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "shefbench: %s run %d/%d done\n", w.name, i+1, runs)
		}
		for _, m := range s.list(rc.trace) {
			v := values[m.Name]
			if len(v) == 0 {
				continue
			}
			med, q1, q3 := quartiles(v)
			spread := ratio(q3-q1, med)
			flag := ""
			if !rc.trace && spread > m.Bound {
				flag = "OVER BOUND"
			}
			fmt.Fprintf(stdout, "%-8s %-40s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n",
				w.name, m.Name, med, q1, q3, 100*spread, 100*m.Bound, flag)
			summary.Metrics[w.name+"."+m.Name] = metric{Value: med, Unit: units[m.Name]}
		}
	}
	if !summary.Correct && code == 0 {
		code = 1
	}
	line, _ := json.Marshal(summary) // medians of parsed values: finite

	fmt.Fprintln(stdout, string(line))
	return code
}

// quartiles returns the median and the first and third quartiles by the
// exclusive method (Python's statistics.quantiles(data, n=4) default).
func quartiles(v []float64) (med, q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return med, q(1), q(3)
}
