// Command benchtab regenerates the paper's evaluation tables and figures
// (§6) from the simulated ShEF stack and prints them alongside the
// paper-reported values.
//
// Usage:
//
//	benchtab -all                 # everything, at the paper's dimensions
//	benchtab -table 2
//	benchtab -fig 6
//	benchtab -boot
//
// CI modes for the benchmark trajectory:
//
//	go test -bench=. ./... | benchtab -json > BENCH_pr.json
//	benchtab -check -baseline BENCH_baseline.json -pr BENCH_pr.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"shef/internal/experiments"
	"shef/internal/profiling"
	"shef/internal/sdp"
)

func main() {
	table := flag.Int("table", 0, "regenerate Table N (1, 2, or 3)")
	fig := flag.Int("fig", 0, "regenerate Figure N (5 or 6)")
	bootFlag := flag.Bool("boot", false, "print the §6.1 boot timeline")
	cluster := flag.Bool("cluster", false, "run the SDP cluster throughput sweeps (ops/sec vs shards and goroutines)")
	oramFlag := flag.Bool("oram", false, "run the Path ORAM path-cost sweep (serial vs batched, §5.2.2)")
	tenantsFlag := flag.Bool("tenants", false, "run the multi-tenant region-lookup scaling sweep (zones vs lookup overhead)")
	all := flag.Bool("all", false, "regenerate everything")
	profileFlag := flag.Bool("profile", false, "run the cluster sweeps under the profiling harness, write cpu/mutex/block profiles and a trace to -profiledir, and print the go tool pprof commands that read them")
	profileDir := flag.String("profiledir", "profiles", "output directory for -profile (cpu/mutex/block pprof + trace)")
	jsonFlag := flag.Bool("json", false, "parse `go test -bench` output on stdin into JSON on stdout")
	checkFlag := flag.Bool("check", false, "compare -pr against -baseline and fail on regressions")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline document for -check")
	prPath := flag.String("pr", "BENCH_pr.json", "PR document for -check")
	flag.Parse()

	if *jsonFlag {
		if err := emitJSON(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *checkFlag {
		os.Exit(runCheck(*baselinePath, *prPath, os.Stdout))
	}

	if *profileFlag {
		runProfile(*profileDir)
		return
	}

	any := false
	if *all || *table == 1 {
		any = true
		printTable1()
	}
	if *all || *fig == 5 {
		any = true
		printFigure5()
	}
	if *all || *table == 2 {
		any = true
		printTable2()
	}
	if *all || *fig == 6 {
		any = true
		printFigure6()
	}
	if *all || *table == 3 {
		any = true
		printTable3()
	}
	if *all || *bootFlag {
		any = true
		printBoot()
	}
	if *all || *cluster {
		any = true
		printCluster()
	}
	if *all || *oramFlag {
		any = true
		printORAM()
	}
	if *all || *tenantsFlag {
		any = true
		printTenants()
	}
	if !any {
		flag.Usage()
	}
}

func printTable1() {
	fmt.Println("== Table 1: Shield component utilization on AWS F1 ==")
	fmt.Printf("%-16s %10s %14s %14s\n", "Component", "BRAM", "LUT", "REG")
	for _, r := range experiments.Table1() {
		fmt.Printf("%-16s %4d (%4.2f%%) %6d (%4.2f%%) %6d (%4.2f%%)\n",
			r.Component, r.Res.BRAM, r.Util.BRAM, r.Res.LUT, r.Util.LUT, r.Res.REG, r.Util.REG)
	}
	fmt.Println("paper: Controller 2348/547, Engine Set 2/1068/2508, Reg.If 3251/1902,")
	fmt.Println("       AES-4x 2435/2347, AES-16x 2898/2347, HMAC 3926/2636, PMAC 2545/2570")
	fmt.Println()
}

func printFigure5() {
	fmt.Println("== Figure 5: vecadd throughput overhead vs input size ==")
	rows, err := experiments.Figure5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-14s %s\n", "input/vec", "config", "normalized exec time")
	for _, r := range rows {
		fmt.Printf("%9dKB  %-14s %.2fx\n", r.InputKB, r.Variant, r.Overhead)
	}
	mm, err := experiments.MatMulOverhead()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matmul (AES-128/4x): %.2fx  (paper §6.2.2: max 1.26x, less pronounced than vecadd)\n", mm)
	fmt.Println("paper shape: AES/4x grows crypto-bound with size; AES/16x stays below ~1.5x")
	fmt.Println()
}

func printTable2() {
	fmt.Println("== Table 2: SDP Shield configuration sweep (1MB file, 4KB auth blocks) ==")
	rows, err := sdp.Table2()
	if err != nil {
		log.Fatal(err)
	}
	paper := []int{298, 297, 59, 20, 20}
	fmt.Printf("%-26s %10s %10s\n", "config", "measured", "paper")
	for i, r := range rows {
		fmt.Printf("%-26s %8.0f%% %9d%%\n", r.Label, r.Overhead*100, paper[i])
	}
	fmt.Println()
}

func printFigure6() {
	fmt.Println("== Figure 6: workload execution time across Shield configurations ==")
	rows, err := experiments.Figure6()
	if err != nil {
		log.Fatal(err)
	}
	paper := map[string]string{
		"conv":      "1.20-1.35x",
		"digitrec":  "1.85-3.15x",
		"affine":    "1.41-2.22x",
		"dnnweaver": "3.20-3.83x (2.31x with PMAC)",
		"bitcoin":   "~1.0x",
	}
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Printf("%-10s (paper: %s)\n", r.Workload, paper[r.Workload])
			last = r.Workload
		}
		fmt.Printf("    %-18s %.2fx\n", r.Variant, r.Overhead)
	}
	fmt.Println()
}

func printTable3() {
	fmt.Println("== Table 3: inclusive Shield utilization (largest config per accelerator) ==")
	rows, err := experiments.Table3()
	if err != nil {
		log.Fatal(err)
	}
	paper := map[string][3]float64{
		"conv":      {2.9, 11, 5.2},
		"digitrec":  {0.71, 3.3, 1.4},
		"affine":    {2.1, 11, 5.2},
		"dnnweaver": {3.1, 7.1, 3.5},
		"bitcoin":   {0, 1.4, 0.42},
	}
	fmt.Printf("%-10s %28s %28s\n", "workload", "measured (BRAM/LUT/REG)", "paper (BRAM/LUT/REG)")
	for _, r := range rows {
		p := paper[r.Workload]
		fmt.Printf("%-10s %8.2f%% %7.2f%% %7.2f%% %9.2f%% %7.2f%% %7.2f%%\n",
			r.Workload, r.Util.BRAM, r.Util.LUT, r.Util.REG, p[0], p[1], p[2])
	}
	fmt.Println()
}

func printCluster() {
	fmt.Println("== SDP cluster throughput: ops/sec vs fleet size (8 client goroutines) ==")
	rows, err := experiments.ClusterThroughput(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%7s %8s %7s %10s %12s %16s %14s\n", "shards", "workers", "ops", "elapsed", "ops/sec", "sim max-busy cyc", "sim ops/sec")
	for _, r := range rows {
		fmt.Printf("%7d %8d %7d %10s %12.0f %16d %14.0f\n",
			r.Shards, r.Workers, r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec, r.SimMaxBusy, r.SimOpsPerSec)
	}
	fmt.Println("(host ops/sec is bounded by real cores; sim ops/sec is the fleet model: ops over the busiest shard's cycles)")
	fmt.Println()
	fmt.Println("== SDP cluster throughput: ops/sec vs offered load (4 shards) ==")
	rows, err = experiments.ClusterWorkerSweep(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%7s %8s %7s %10s %12s\n", "shards", "workers", "ops", "elapsed", "ops/sec")
	for _, r := range rows {
		fmt.Printf("%7d %8d %7d %10s %12.0f\n",
			r.Shards, r.Workers, r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec)
	}
	fmt.Println()
}

// runProfile wraps the cluster sweeps in the profiling harness: CPU,
// mutex, and block profiles plus an execution trace land in dir, and the
// `go tool pprof` commands that rank on-CPU time, split it by label, and
// rank blocked time print after the sweep output.
func runProfile(dir string) {
	fmt.Printf("== cluster sweeps under the profiling harness (profiles in %s/) ==\n\n", dir)
	h, err := profiling.Start(dir)
	if err != nil {
		log.Fatal(err)
	}
	printCluster()
	if err := h.Stop(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("== read the profiles ==")
	fmt.Printf("on-CPU, top functions:  go tool pprof -top -nodecount=12 %s\n", h.CPUPath())
	fmt.Printf("on-CPU, by label:       go tool pprof -tags %s\n", h.CPUPath())
	fmt.Printf("off-CPU, blocked time:  go tool pprof -top -nodecount=12 -hide='^(runtime|sync|internal)[./]' %s %s\n",
		h.BlockPath(), h.MutexPath())
	fmt.Printf("execution trace:        go tool trace %s\n", h.TracePath())
}

func printORAM() {
	fmt.Println("== Path ORAM path cost: serial per-bucket vs batched gather (§5.2.2) ==")
	serial, batched, err := experiments.ORAMPathSweep()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %16s %16s\n", "mode", "cycles/access", "amplification")
	for _, p := range []experiments.ORAMPoint{serial, batched} {
		fmt.Printf("%-20s %16.0f %15.1fx\n", p.Mode, p.CyclesPerAccess, p.Amplification)
	}
	fmt.Printf("batched path speedup at %d blocks × %d B: %.2fx (TestORAMBatchedSpeedup gates ≥1.5x at 4096)\n",
		batched.Blocks, batched.BlockSize, serial.CyclesPerAccess/batched.CyclesPerAccess)
	fmt.Println("(every access moves one root-to-leaf path; the batched mode reads it in one")
	fmt.Println(" ReadGather and writes it back in one WriteGather, each paying fill/drain once)")
	fmt.Println()
}

func printTenants() {
	fmt.Println("== Multi-tenant scaling: region-lookup cost vs resident zones ==")
	rows, err := experiments.TenantSweep()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%7s %12s %10s %14s %14s\n", "zones", "host ns/op", "hit rate", "lookup cycles", "overhead")
	for _, r := range rows {
		fmt.Printf("%7d %12.0f %9.2f%% %14d %13.3f%%\n",
			r.Zones, r.NsPerOp, r.HitPct, r.LookupCycles, r.OverheadPct)
	}
	fmt.Println("(one hot zone, the rest idle; the TLB-style lookup cache keeps per-access")
	fmt.Println(" resolution O(1) — benchtab -check ceilings the overhead at 5%)")
	fmt.Println()
}

func printBoot() {
	fmt.Println("== §6.1: end-to-end secure boot time (Ultra96 model) ==")
	stages, total, vm, f1 := experiments.BootTimeline()
	for _, s := range stages {
		fmt.Printf("    %-28s %5.2f s\n", s.Stage, s.Seconds)
	}
	fmt.Printf("    %-28s %5.2f s   (paper: 5.1 s)\n", "total", total)
	fmt.Printf("references: VM boot ~%.0f s, F1 bitstream load %.1f s\n", vm, f1)
	fmt.Println()
}
