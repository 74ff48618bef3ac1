package experiments

import (
	"math"
	"sync"
	"testing"

	"shef/internal/accel"
)

// These tests assert that the reproduction preserves the *shape* of the
// paper's results — who wins, by roughly what factor, where the crossovers
// fall — at the paper's workload dimensions. `go run ./cmd/benchtab -all`
// prints the measured values next to the paper's.

// figure5 runs Figure 5 once per test binary: its 80 MB vecadd point
// dominates the package's run time, and two tests read the rows.
var figure5 = sync.OnceValues(Figure5)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("Table 1 has %d rows, want 7", len(rows))
	}
	// Paper-reported percentages (BRAM, LUT, REG).
	want := map[string][3]float64{
		"Controller":     {0, 0.26, 0.03},
		"Engine Set":     {0.12, 0.12, 0.14},
		"Reg. Interface": {0, 0.36, 0.11},
		"AES-4x":         {0, 0.27, 0.13},
		"AES-16x":        {0, 0.32, 0.13},
		"HMAC":           {0, 0.44, 0.15},
		"PMAC":           {0, 0.28, 0.14},
	}
	for _, r := range rows {
		w := want[r.Component]
		if math.Abs(r.Util.BRAM-w[0]) > 0.02 || math.Abs(r.Util.LUT-w[1]) > 0.02 || math.Abs(r.Util.REG-w[2]) > 0.02 {
			t.Errorf("%s: %v, want %.2f/%.2f/%.2f", r.Component, r.Util, w[0], w[1], w[2])
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	t.Parallel()
	rows, err := figure5()
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string][]float64{}
	for _, r := range rows {
		byVariant[r.Variant.String()] = append(byVariant[r.Variant.String()], r.Overhead)
	}
	v4 := byVariant[accel.V128x4.String()]
	v16 := byVariant[accel.V128x16.String()]
	if len(v4) != len(v16) || len(v4) < 3 {
		t.Fatalf("unexpected row shape: %v", byVariant)
	}
	for i := range v4 {
		// 16x is never slower than 4x; all overheads >= ~1.
		if v16[i] > v4[i]+0.02 {
			t.Errorf("size %d: 16x (%.2f) slower than 4x (%.2f)", i, v16[i], v4[i])
		}
		if v4[i] < 0.98 || v16[i] < 0.98 {
			t.Errorf("size %d: overhead below 1 (%.2f / %.2f)", i, v4[i], v16[i])
		}
	}
	// 4x overhead grows with vector size (crypto-bound regime); 16x stays
	// below 1.6x everywhere ("drops below 50% for all vector sizes" with
	// model tolerance).
	if !(v4[len(v4)-1] > v4[0]) {
		t.Errorf("AES/4x overhead does not grow with size: %v", v4)
	}
	if v4[len(v4)-1] < 1.5 {
		t.Errorf("AES/4x large-size overhead %.2f, want crypto-bound (>1.5)", v4[len(v4)-1])
	}
	for i, o := range v16 {
		if o > 1.6 {
			t.Errorf("AES/16x overhead %.2f at size %d exceeds 1.6", o, i)
		}
	}
}

func TestMatMulLessPronounced(t *testing.T) {
	t.Parallel()
	mm, err := MatMulOverhead()
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6.2.2: max 1.26x for AES/4x — far below vecadd's 4x point.
	if mm < 1.02 || mm > 1.6 {
		t.Errorf("matmul AES/4x overhead %.2f outside [1.02, 1.6] (paper: 1.26)", mm)
	}
	rows, err := figure5()
	if err != nil {
		t.Fatal(err)
	}
	var vecaddLargest float64
	for _, r := range rows {
		if r.Variant == accel.V128x4 && r.Overhead > vecaddLargest {
			vecaddLargest = r.Overhead
		}
	}
	if mm >= vecaddLargest {
		t.Errorf("matmul (%.2f) not lower than vecadd 4x (%.2f): compute density lost", mm, vecaddLargest)
	}
}

// figure6Bands holds per-workload overhead bounds at the paper's
// dimensions: x16 bounds the AES-128/16x and AES-256/16x bars, x4 the
// AES-128/4x and AES-256/4x bars, which run crypto-bound on the memory
// workloads. Each comment gives the measured bars, then the paper's range.
var figure6Bands = map[string]struct{ x16, x4 [2]float64 }{
	"conv":      {x16: [2]float64{1.05, 1.35}, x4: [2]float64{1.80, 2.90}}, // 1.07/1.07, 4x 1.97/2.64; paper 1.20-1.35
	"digitrec":  {x16: [2]float64{2.70, 3.20}, x4: [2]float64{5.00, 8.00}}, // 2.94/3.00, 4x 5.49/7.30; paper 1.85-3.15
	"affine":    {x16: [2]float64{1.35, 1.65}, x4: [2]float64{1.35, 1.70}}, // 1.48/1.48, 4x 1.48/1.52; paper 1.41-2.22 (streamed output rows cheapen the bare baseline)
	"dnnweaver": {x16: [2]float64{3.20, 3.60}, x4: [2]float64{3.20, 3.70}}, // 3.38/3.38, 4x 3.43/3.46; paper 3.20-3.83 (HMAC bars)
	"bitcoin":   {x16: [2]float64{0.99, 1.03}, x4: [2]float64{0.99, 1.03}}, // 1.00 everywhere; paper ~1.0
}

func TestFigure6Shape(t *testing.T) {
	t.Parallel()
	rows, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]float64{}
	for _, r := range rows {
		if got[r.Workload] == nil {
			got[r.Workload] = map[string]float64{}
		}
		got[r.Workload][r.Variant.String()] = r.Overhead
		t.Logf("%-10s %-16s %.2fx", r.Workload, r.Variant, r.Overhead)
	}
	for wl, band := range figure6Bands {
		for v, o := range got[wl] {
			b := band.x16
			switch v {
			case accel.V128x16PMAC.String():
				continue // checked separately below
			case accel.V128x4.String(), accel.V256x4.String():
				b = band.x4
			}
			if o < b[0] || o > b[1] {
				t.Errorf("%s %s overhead %.2f outside [%.2f, %.2f]", wl, v, o, b[0], b[1])
			}
		}
	}
	// Orderings the paper reports.
	for wl, vs := range got {
		if vs[accel.V128x4.String()]+0.02 < vs[accel.V128x16.String()] {
			t.Errorf("%s: 4x faster than 16x", wl)
		}
		if vs[accel.V256x16.String()]+0.02 < vs[accel.V128x16.String()] {
			t.Errorf("%s: AES-256 faster than AES-128", wl)
		}
	}
	// DNNWeaver: PMAC substantially beats HMAC (paper: 3.20 -> 2.31).
	dw := got["dnnweaver"]
	hmac := dw[accel.V128x16.String()]
	pmac := dw[accel.V128x16PMAC.String()]
	if pmac >= hmac-0.5 {
		t.Errorf("dnnweaver PMAC (%.2f) does not substantially improve on HMAC (%.2f)", pmac, hmac)
	}
	if pmac < 2.15 || pmac > 2.50 {
		t.Errorf("dnnweaver PMAC overhead %.2f outside [2.15, 2.50] (paper: 2.31)", pmac)
	}
	// Bitcoin is the near-zero-overhead register workload; conv the lowest
	// of the memory workloads (compute dense).
	if got["bitcoin"][accel.V128x16.String()] > got["conv"][accel.V128x16.String()] {
		t.Error("bitcoin overhead exceeds conv")
	}
	if got["conv"][accel.V128x16.String()] > got["dnnweaver"][accel.V128x16.String()] {
		t.Error("conv overhead exceeds dnnweaver (compute density inverted)")
	}
}

func TestTable3MatchesPaperShape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	util := map[string]float64{}
	for _, r := range rows {
		util[r.Workload] = r.Util.LUT
		// Paper: all single-digit-ish percentages (max 11% LUT).
		if r.Util.LUT > 13 || r.Util.BRAM > 5 || r.Util.REG > 7 {
			t.Errorf("%s: utilisation too high: %v", r.Workload, r.Util)
		}
	}
	// Paper's ordering: conv and affine are the largest (≈11% LUT each),
	// bitcoin the smallest (1.4%).
	if !(util["bitcoin"] < util["digitrec"] && util["digitrec"] < util["conv"]) {
		t.Errorf("LUT ordering wrong: %v", util)
	}
	if util["bitcoin"] > 2 {
		t.Errorf("bitcoin shield uses %.1f%% LUT, want ~1.4%%", util["bitcoin"])
	}
	if util["conv"] < 9 || util["affine"] < 9 {
		t.Errorf("conv/affine should be ~11%% LUT: %v", util)
	}
}

func TestBootTimelineExperiment(t *testing.T) {
	stages, total, vm, f1 := BootTimeline()
	if len(stages) == 0 {
		t.Fatal("no boot stages")
	}
	if math.Abs(total-5.1) > 0.01 {
		t.Errorf("boot total %.2f s, want 5.1 s", total)
	}
	if total >= vm {
		t.Error("secure boot not faster than VM boot")
	}
	if f1 <= 0 {
		t.Error("missing F1 reference")
	}
}
