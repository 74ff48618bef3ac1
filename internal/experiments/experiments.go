// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the simulated ShEF stack, except Table 2, which
// package sdp regenerates (sdp.Table2). Each experiment returns
// structured rows; cmd/benchtab renders them as text and bench_test.go
// wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"

	"shef/internal/accel"
	"shef/internal/boot"
	"shef/internal/fpga"
	"shef/internal/perf"
	"shef/internal/shield"
)

// ---------------------------------------------------------------------
// Table 1: Shield component utilisation on AWS F1.

// Table1Row is one component line of Table 1.
type Table1Row struct {
	Component string
	Res       fpga.Resources
	Util      shield.Utilization
}

// Table1 regenerates the component table from the area model.
func Table1() []Table1Row {
	rows := []struct {
		name string
		res  fpga.Resources
	}{
		{"Controller", shield.ControllerArea},
		{"Engine Set", shield.EngineSetArea},
		{"Reg. Interface", shield.RegInterfaceArea},
		{"AES-4x", shield.AES4xArea},
		{"AES-16x", shield.AES16xArea},
		{"HMAC", shield.HMACArea},
		{"PMAC", shield.PMACArea},
	}
	out := make([]Table1Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Table1Row{
			Component: r.name,
			Res:       r.res,
			Util:      shield.UtilizationOn(r.res, fpga.VU9P),
		})
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 5: vector add (and §6.2.2 matmul) throughput overhead.

// Fig5Row is one (size, variant) point of Figure 5.
type Fig5Row struct {
	InputKB  int
	Variant  accel.Variant
	Overhead float64
}

// Figure5 sweeps vecadd sizes for the AES/4x and AES/16x configurations
// over the paper's x-axis: 8 KB to 80 MB per input vector.
func Figure5() ([]Fig5Row, error) {
	params := perf.Default()
	var rows []Fig5Row
	for _, size := range []int{8 << 10, 80 << 10, 800 << 10, 8 << 20, 80 << 20} {
		p := map[string]string{"bytes": fmt.Sprint(size)}
		mk := func() (accel.Workload, error) { return accel.New("vecadd", p) }
		w, err := mk()
		if err != nil {
			return nil, err
		}
		bare, err := accel.RunBare(w, params, 11)
		if err != nil {
			return nil, err
		}
		for _, v := range []accel.Variant{accel.V128x4, accel.V128x16} {
			w2, _ := mk()
			sec, err := accel.RunShielded(w2, v, params, 11)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig5Row{
				InputKB:  size >> 10,
				Variant:  v,
				Overhead: accel.Overhead(sec, bare),
			})
		}
	}
	return rows, nil
}

// MatMulOverhead reproduces the §6.2.2 remark: matrix multiply peaks at
// 1.26x for AES/4x because it computes more per byte.
func MatMulOverhead() (float64, error) {
	params := perf.Default()
	// n=256 with a 32-lane MAC array puts the compute/memory balance in
	// the regime the paper describes (more computation per byte than
	// vecadd).
	p := map[string]string{"n": "256"}
	w, err := accel.New("matmul", p)
	if err != nil {
		return 0, err
	}
	bare, err := accel.RunBare(w, params, 12)
	if err != nil {
		return 0, err
	}
	w2, _ := accel.New("matmul", p)
	sec, err := accel.RunShielded(w2, accel.V128x4, params, 12)
	if err != nil {
		return 0, err
	}
	return accel.Overhead(sec, bare), nil
}

// ---------------------------------------------------------------------
// Figure 6: five workloads across Shield engine configurations.

// Fig6Row is one bar of Figure 6.
type Fig6Row struct {
	Workload string
	Variant  accel.Variant
	Overhead float64
	Shielded accel.RunResult
	Bare     accel.RunResult
}

// Figure6Workloads lists the workloads of Figure 6 in paper order.
var Figure6Workloads = []string{"conv", "digitrec", "affine", "dnnweaver", "bitcoin"}

// figure6Params sizes each workload at the paper's dimensions.
func figure6Params(name string) map[string]string {
	switch name {
	case "conv":
		// The paper's layer: 27×27×96 in, 5×5 filters, 27×27×256 out.
		// The 640-lane MAC array matches the compute density the
		// paper's batched implementation achieves.
		return map[string]string{"cin": "96", "cout": "256", "batch": "1", "lanes": "640"}
	case "digitrec":
		return map[string]string{"train": "16384", "tests": "192", "units": "16"}
	case "affine":
		return map[string]string{"dim": "512"}
	case "dnnweaver":
		return map[string]string{"batch": "48"}
	case "bitcoin":
		return map[string]string{"difficulty": "18"}
	}
	return nil
}

// Figure6Variants lists the engine configurations per workload: the four
// AES variants everywhere, plus the PMAC bar for DNNWeaver (§6.2.4).
func Figure6VariantsFor(name string) []accel.Variant {
	vs := append([]accel.Variant(nil), accel.Figure6Variants...)
	if name == "dnnweaver" {
		vs = append(vs, accel.V128x16PMAC)
	}
	return vs
}

// Figure6 runs the full grid.
func Figure6() ([]Fig6Row, error) {
	params := perf.Default()
	var rows []Fig6Row
	for _, name := range Figure6Workloads {
		p := figure6Params(name)
		w, err := accel.New(name, p)
		if err != nil {
			return nil, err
		}
		bare, err := accel.RunBare(w, params, 21)
		if err != nil {
			return nil, fmt.Errorf("%s bare: %w", name, err)
		}
		for _, v := range Figure6VariantsFor(name) {
			w2, _ := accel.New(name, p)
			sec, err := accel.RunShielded(w2, v, params, 21)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, v, err)
			}
			rows = append(rows, Fig6Row{
				Workload: name,
				Variant:  v,
				Overhead: accel.Overhead(sec, bare),
				Shielded: sec,
				Bare:     bare,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Table 3: inclusive resource utilisation of the largest Shield config.

// Table3Row is one accelerator column of Table 3.
type Table3Row struct {
	Workload string
	Res      fpga.Resources
	Util     shield.Utilization
}

// Table3 computes the area of each workload's largest (AES/16x) Shield at
// the paper's workload sizes.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range Figure6Workloads {
		w, err := accel.New(name, figure6Params(name))
		if err != nil {
			return nil, err
		}
		cfg := w.ShieldConfig(accel.V128x16)
		res := shield.Area(cfg)
		rows = append(rows, Table3Row{
			Workload: name,
			Res:      res,
			Util:     shield.UtilizationOn(res, fpga.VU9P),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// §6.1: end-to-end secure boot time.

// BootRow is one stage of the boot timeline.
type BootRow struct {
	Stage   string
	Seconds float64
}

// BootTimeline reports the modelled Ultra96 boot stages and references.
func BootTimeline() (stages []BootRow, total, vmBoot, f1Load float64) {
	for _, s := range boot.Timeline {
		stages = append(stages, BootRow{Stage: s.Name, Seconds: s.Seconds})
	}
	return stages, boot.TotalBootSeconds(), boot.VMBootSeconds, boot.F1BitstreamLoadSeconds
}
