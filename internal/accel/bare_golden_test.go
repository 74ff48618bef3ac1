package accel

import (
	"sort"
	"testing"

	"shef/internal/perf"
)

// TestRunBareGolden pins the exact cycle counts of the unsecured baseline
// that Figures 5-6 divide by. The baseline's memory path is a model, not a
// measurement, so any change to it moves every reported overhead; a
// refactor of that path must leave this table untouched.
func TestRunBareGolden(t *testing.T) {
	type row struct {
		design           string
		params           map[string]string
		seed             int64
		cycles, memCycle uint64
	}
	// Every registered design at its default parameters.
	defaults := map[string][2]uint64{
		"affine":    {323464, 103464},
		"bitcoin":   {16629148, 0},
		"conv":      {257928, 37928},
		"digitrec":  {293432, 73432},
		"dnnweaver": {575068, 355068},
		"matmul":    {305248, 85248},
		"vecadd":    {424288, 204288},
	}
	var rows []row
	names := Designs()
	sort.Strings(names)
	for _, name := range names {
		want, ok := defaults[name]
		if !ok {
			t.Errorf("design %q has no golden baseline row", name)
			continue
		}
		rows = append(rows, row{name, nil, 1, want[0], want[1]})
	}
	rows = append(rows,
		// Figure 6 at the full-scale parameters (seed 21).
		row{"conv", map[string]string{"cin": "32", "cout": "96", "batch": "1", "lanes": "1024"}, 21, 277928, 57928},
		row{"digitrec", map[string]string{"train": "8192", "tests": "64"}, 21, 292288, 72288},
		row{"affine", map[string]string{"dim": "256"}, 21, 323464, 103464},
		row{"dnnweaver", map[string]string{"batch": "24"}, 21, 575068, 355068},
		row{"bitcoin", map[string]string{"difficulty": "15"}, 21, 3500116, 0},
		// The §6.2.2 matrix multiply (seed 12).
		row{"matmul", map[string]string{"n": "256"}, 12, 855904, 635904},
		// Figure 5's vecadd sizes (seed 11).
		row{"vecadd", map[string]string{"bytes": "8192"}, 11, 221776, 1776},
		row{"vecadd", map[string]string{"bytes": "81920"}, 11, 236080, 16080},
		row{"vecadd", map[string]string{"bytes": "819200"}, 11, 379600, 159600},
	)
	for _, r := range rows {
		w, err := New(r.design, r.params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunBare(w, perf.Default(), r.seed)
		if err != nil {
			t.Fatalf("%s %v: %v", r.design, r.params, err)
		}
		if res.Cycles != r.cycles || res.MemCycles != r.memCycle {
			t.Errorf("%s %v: bare Cycles/MemCycles = %d/%d, want %d/%d",
				r.design, r.params, res.Cycles, res.MemCycles, r.cycles, r.memCycle)
		}
	}
}
