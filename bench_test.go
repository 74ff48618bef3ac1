package shef

// One benchmark per table and figure of the paper's evaluation (§6), at
// the paper's workload dimensions. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment through internal/experiments
// and reports the headline numbers as custom metrics; the full rows print
// with -v. cmd/benchtab renders the same tables as text.

import (
	"fmt"
	"testing"
	"time"

	"shef/internal/accel"
	"shef/internal/experiments"
	"shef/internal/perf"
	"shef/internal/sdp"
)

// BenchmarkTable1ShieldArea regenerates Table 1: per-component Shield
// resource utilisation on the F1 device model.
func BenchmarkTable1ShieldArea(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	for _, r := range rows {
		b.Logf("%-16s BRAM %d (%.2f%%)  LUT %d (%.2f%%)  REG %d (%.2f%%)",
			r.Component, r.Res.BRAM, r.Util.BRAM, r.Res.LUT, r.Util.LUT, r.Res.REG, r.Util.REG)
	}
	b.ReportMetric(float64(len(rows)), "components")
}

// BenchmarkFigure5VecAdd regenerates Figure 5: vecadd throughput overhead
// across input sizes for the AES/4x and AES/16x Shield configurations.
func BenchmarkFigure5VecAdd(b *testing.B) {
	var rows []experiments.Fig5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	var max4, max16 float64
	for _, r := range rows {
		b.Logf("vecadd %8dKB %-14s %.2fx", r.InputKB, r.Variant, r.Overhead)
		if r.Variant == accel.V128x4 && r.Overhead > max4 {
			max4 = r.Overhead
		}
		if r.Variant == accel.V128x16 && r.Overhead > max16 {
			max16 = r.Overhead
		}
	}
	b.ReportMetric(max4, "max-overhead-4x")
	b.ReportMetric(max16, "max-overhead-16x")
}

// BenchmarkFigure5MatMul regenerates the §6.2.2 matmul remark (paper:
// max 1.26x for AES/4x).
func BenchmarkFigure5MatMul(b *testing.B) {
	var ov float64
	var err error
	for i := 0; i < b.N; i++ {
		ov, err = experiments.MatMulOverhead()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("matmul AES-128/4x overhead %.2fx (paper: 1.26x)", ov)
	b.ReportMetric(ov, "overhead")
}

// BenchmarkTable2SDP regenerates Table 2: the SDP storage-node Shield
// configuration sweep (paper: 298/297/59/20/20%% overheads).
func BenchmarkTable2SDP(b *testing.B) {
	var rows []struct {
		Label    string
		Overhead float64
	}
	for i := 0; i < b.N; i++ {
		rs, err := sdp.Table2()
		if err != nil {
			b.Fatal(err)
		}
		rows = rows[:0]
		for _, r := range rs {
			rows = append(rows, struct {
				Label    string
				Overhead float64
			}{r.Label, r.Overhead})
		}
	}
	paper := []int{298, 297, 59, 20, 20}
	for i, r := range rows {
		b.Logf("%-26s measured %4.0f%%  paper %3d%%", r.Label, r.Overhead*100, paper[i])
		b.ReportMetric(r.Overhead*100, fmt.Sprintf("pct-cfg%d", i))
	}
}

// BenchmarkFigure6Workloads regenerates Figure 6: the five accelerators
// across Shield engine configurations.
func BenchmarkFigure6Workloads(b *testing.B) {
	var rows []experiments.Fig6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-10s %-16s %.2fx", r.Workload, r.Variant, r.Overhead)
		if r.Variant == accel.V128x16 || r.Variant == accel.V128x16PMAC {
			name := r.Workload
			if r.Variant.PMAC {
				name += "-pmac"
			}
			b.ReportMetric(r.Overhead, name+"-x")
		}
	}
}

// BenchmarkTable3Area regenerates Table 3: inclusive resource utilisation
// of each accelerator's largest Shield configuration.
func BenchmarkTable3Area(b *testing.B) {
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-10s BRAM %.2f%%  LUT %.2f%%  REG %.2f%%", r.Workload, r.Util.BRAM, r.Util.LUT, r.Util.REG)
		b.ReportMetric(r.Util.LUT, r.Workload+"-lut-pct")
	}
}

// BenchmarkSection61Boot regenerates the §6.1 boot-time measurement
// (paper: 5.1 s power-on to bitstream loaded on the Ultra96).
func BenchmarkSection61Boot(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		_, t, _, _ := experiments.BootTimeline()
		total = t
	}
	stages, _, vm, f1 := experiments.BootTimeline()
	for _, s := range stages {
		b.Logf("%-28s %5.2f s", s.Stage, s.Seconds)
	}
	b.Logf("total %.2f s (paper: 5.1 s; VM boot ~%.0f s; F1 load %.1f s)", total, vm, f1)
	b.ReportMetric(total, "boot-seconds")
}

// BenchmarkAblationChunkSize quantifies the §5.2.1 Cmem trade-off for
// streaming vs random access (DESIGN.md ablations).
func BenchmarkAblationChunkSize(b *testing.B) {
	var streaming, random []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		streaming, random, err = experiments.AblationChunkSize()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := range streaming {
		b.Logf("%-10s streaming %8.0f cyc/KB   random %8.0f cyc/KB",
			streaming[i].Label, streaming[i].CyclesPerKB, random[i].CyclesPerKB)
	}
}

// BenchmarkAblationBuffer sweeps the on-chip buffer against a fixed
// working set.
func BenchmarkAblationBuffer(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationBufferSize()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-14s %8.0f cyc/KB (misses %d)", r.Label, r.CyclesPerKB, r.Misses)
	}
}

// BenchmarkAblationFreshness prices the replay-protection counters.
func BenchmarkAblationFreshness(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationFreshness()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-26s %8.0f cyc/KB, %d OCM bits", r.Label, r.CyclesPerKB, r.OCMBits)
	}
}

// BenchmarkClusterThroughput measures the sharded SDP cluster's aggregate
// ops/sec as the fleet grows (fixed offered load of eight client
// goroutines) — the serving-tier scaling story grown from the paper's
// §6.2.3 case study. cmd/benchtab renders the same sweep with -cluster.
func BenchmarkClusterThroughput(b *testing.B) {
	var rows []experiments.ClusterRow
	var err error
	for i := 0; i < b.N; i++ {
		// The sweep stops the timer around cluster construction, sealed
		// key-DB provisioning, and warm-up, so real ops/sec measures
		// steady-state serving only.
		rows, err = experiments.ClusterThroughput(b)
		if err != nil {
			b.Fatal(err)
		}
	}
	byShards := make(map[int]experiments.ClusterRow)
	for _, r := range rows {
		byShards[r.Shards] = r
		b.Logf("shards=%d workers=%d  %6d ops in %8s  %9.0f ops/sec  sim %9.0f ops/sec (max-busy %d cyc)",
			r.Shards, r.Workers, r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec, r.SimOpsPerSec, r.SimMaxBusy)
		b.ReportMetric(r.OpsPerSec, fmt.Sprintf("ops/sec-%dshard", r.Shards))
		b.ReportMetric(r.SimOpsPerSec, fmt.Sprintf("sim-ops/sec-%dshard", r.Shards))
	}
	// The headline scaling gate: real (wall-clock) throughput ratio from
	// one shard to eight. benchtab -check fails the PR if this flattens.
	if r1, r8 := byShards[1], byShards[8]; r1.OpsPerSec > 0 && r8.OpsPerSec > 0 {
		b.ReportMetric(r8.OpsPerSec/r1.OpsPerSec, "real-cluster-scale-x")
	}
}

// BenchmarkClusterDegraded measures the replicated serving fleet's
// throughput healthy and with one of four shards crashed — the
// resilience counterpart of the scaling sweep. The gated headline is
// real-degraded-retain-x (degraded/healthy, absolute floor 0.25 in
// benchtab -check): a single-node failure must leave a serving cluster,
// not a dead one. real-degraded-ops/sec gates against the baseline with
// the real-family budget so the degraded rate never silently collapses.
func BenchmarkClusterDegraded(b *testing.B) {
	var row experiments.DegradedRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = experiments.DegradedThroughput(b)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("shards=%d replicas=%d workers=%d  healthy %9.0f ops/sec  degraded %9.0f ops/sec  retain %.2fx",
		row.Shards, row.Replicas, row.Workers, row.HealthyOpsPerSec, row.DegradedOpsPerSec, row.RetainX)
	b.Logf("degraded window: %d quorum (degraded) writes, %d fallback reads; %d anti-entropy repairs after restart",
		row.DegradedWrites, row.FallbackReads, row.Repairs)
	b.ReportMetric(row.DegradedOpsPerSec, "real-degraded-ops/sec")
	b.ReportMetric(row.RetainX, "real-degraded-retain-x")
}

// BenchmarkClusterGoroutines sweeps offered load over a fixed four-shard
// fleet: ops/sec vs client goroutine count.
func BenchmarkClusterGoroutines(b *testing.B) {
	var rows []experiments.ClusterRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.ClusterWorkerSweep(b)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("shards=%d workers=%2d  %6d ops in %8s  %9.0f ops/sec",
			r.Shards, r.Workers, r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec)
		b.ReportMetric(r.OpsPerSec, fmt.Sprintf("ops/sec-%dworker", r.Workers))
	}
}

// BenchmarkORAMPath prices the oblivious data path on the serving-tier
// Shield configuration: simulated path latency and bandwidth efficiency of
// the batched scatter-gather controller, and its speedup over the serial
// per-bucket baseline. The sim-* metrics are deterministic (the eviction
// order is sorted, the seeds fixed), so benchtab -check gates them.
func BenchmarkORAMPath(b *testing.B) {
	var serial, batched experiments.ORAMPoint
	var err error
	for i := 0; i < b.N; i++ {
		serial, batched, err = experiments.ORAMPathSweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("serial  %8.0f cyc/access  %5.1fx amplification", serial.CyclesPerAccess, serial.Amplification)
	b.Logf("batched %8.0f cyc/access  %5.1fx amplification", batched.CyclesPerAccess, batched.Amplification)
	// All gated metrics are higher-is-better: accesses/sec for path
	// latency, logical bytes per backend byte for amplification.
	b.ReportMetric(serial.CyclesPerAccess/batched.CyclesPerAccess, "sim-oram-speedup-x")
	b.ReportMetric(perf.Default().ClockHz/batched.CyclesPerAccess, "sim-oram-access/sec")
	b.ReportMetric(1000/batched.Amplification, "sim-oram-kB-per-MB-moved")
}

// BenchmarkORAMAmplification prices the §5.2.2 ORAM extension: the
// bandwidth blow-up of hiding addresses on top of the Shield's
// content protection.
func BenchmarkORAMAmplification(b *testing.B) {
	var amp float64
	for i := 0; i < b.N; i++ {
		a, err := experiments.ORAMAmplification()
		if err != nil {
			b.Fatal(err)
		}
		amp = a
	}
	b.Logf("Path ORAM bandwidth amplification: %.1fx per logical access", amp)
	b.ReportMetric(amp, "amplification-x")
}
