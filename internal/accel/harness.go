package accel

import (
	"fmt"
	"math/rand"

	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

// RunResult reports one workload execution under the cycle model.
type RunResult struct {
	// Cycles is the total simulated execution time.
	Cycles uint64
	// MemCycles is the memory-path component (shielded or bare Shield).
	MemCycles uint64
	// ComputeCycles is the accelerator datapath component.
	ComputeCycles uint64
	// Report is the Shield's activity report (zero value for bare runs).
	Report shield.Report
}

// Seconds converts to wall-clock time under params.
func (r RunResult) Seconds(p perf.Params) float64 { return p.Seconds(r.Cycles) }

// combine implements the top-level time composition: fixed host/DMA
// initialisation, then memory and compute overlapped.
func combine(init, memCycles, compute uint64) uint64 {
	busy := memCycles
	if compute > busy {
		busy = compute
	}
	return init + busy
}

// bareRegs is an unsecured register file for baseline runs.
type bareRegs struct{ regs []uint64 }

func (b *bareRegs) ReadReg(i int) (uint64, uint64, error) {
	if i < 0 || i >= len(b.regs) {
		return 0, 0, fmt.Errorf("accel: register %d out of range", i)
	}
	return b.regs[i], 1, nil
}

func (b *bareRegs) WriteReg(i int, v uint64) (uint64, error) {
	if i < 0 || i >= len(b.regs) {
		return 0, fmt.Errorf("accel: register %d out of range", i)
	}
	b.regs[i] = v
	return 1, nil
}

// RunBare executes w without security: inputs land in DRAM as plaintext,
// and the accelerator talks to a keyless Shield (shield.NewBare) in front
// of the Shell port. This is the "unsecured version" baseline of Figures
// 5-6.
func RunBare(w Workload, params perf.Params, seed int64) (RunResult, error) {
	cfg := w.ShieldConfig(V128x16) // layout only; the bare Shield has no crypto
	dram := mem.NewDRAM(dramSizeFor(cfg), params)
	rng := rand.New(rand.NewSource(seed))
	inputs := w.Inputs(rng)
	for name, img := range inputs {
		rc := regionByName(cfg, name)
		if rc == nil {
			return RunResult{}, fmt.Errorf("accel: workload %s writes to unconfigured region %q", w.Name(), name)
		}
		if _, err := dram.WriteBurst(rc.Base, img); err != nil {
			return RunResult{}, err
		}
	}
	dram.ResetStats()
	// The baseline is the Shield configuration's own engine sets without a
	// sealer — the same routing, buffers, prefetcher and windows over the
	// same regions — so the comparison isolates the cost of security
	// rather than of caching.
	bare, err := shield.NewBare(cfg, dram, params)
	if err != nil {
		return RunResult{}, err
	}
	ctx := &Ctx{Mem: bare, Regs: &bareRegs{regs: make([]uint64, 32)}}
	if err := w.Run(ctx); err != nil {
		return RunResult{}, err
	}
	if err := bare.Flush(); err != nil {
		return RunResult{}, err
	}
	outputs := make(map[string][]byte)
	for _, name := range w.OutputRegions() {
		rc := regionByName(cfg, name)
		buf := make([]byte, rc.Size)
		if _, err := dram.ReadBurst(rc.Base, buf); err != nil {
			return RunResult{}, err
		}
		outputs[name] = buf
	}
	if err := w.Check(inputs, outputs); err != nil {
		return RunResult{}, fmt.Errorf("accel: %s bare run produced wrong output: %w", w.Name(), err)
	}
	mem := bare.Report().MemoryCycles()
	res := RunResult{
		MemCycles:     mem,
		ComputeCycles: ctx.ComputeCycles(),
	}
	res.Cycles = combine(params.InitCycles, mem, ctx.ComputeCycles())
	return res, nil
}

// RunShielded executes w behind a Shield built from its own configuration
// for the given variant, exercising the complete ShEF data path: the Data
// Owner seals inputs, the untrusted host DMAs them, the Shield decrypts on
// access, and results are exported and verified on the owner side.
func RunShielded(w Workload, v Variant, params perf.Params, seed int64) (RunResult, error) {
	cfg := w.ShieldConfig(v)
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	dram := mem.NewDRAM(dramSizeFor(cfg), params)
	ocm := mem.NewOCM(1 << 33) // harness does not model OCM pressure here
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		return RunResult{}, err
	}
	sh, err := shield.New(cfg, priv, dram, ocm, params)
	if err != nil {
		return RunResult{}, err
	}
	dek := make([]byte, 32)
	rand.New(rand.NewSource(seed ^ 0x5EED)).Read(dek)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		return RunResult{}, err
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		return RunResult{}, err
	}
	return RunOnShield(w, sh, dram, dek, params, seed)
}

// RunOnShield executes w against an already provisioned Shield: the Data
// Owner seals inputs, the untrusted host DMAs them through dram, the
// workload runs, and results are exported and verified on the owner side.
// hostapp uses this to run workloads on platforms assembled through the
// full boot + attestation workflow.
func RunOnShield(w Workload, sh *shield.Shield, dram *mem.DRAM, dek []byte, params perf.Params, seed int64) (RunResult, error) {
	cfg := sh.Config()

	// Data Owner: seal inputs; host: DMA them in; Shield: mark preloaded.
	rng := rand.New(rand.NewSource(seed))
	inputs := w.Inputs(rng)
	for name, img := range inputs {
		rc := regionByName(cfg, name)
		if rc == nil {
			return RunResult{}, fmt.Errorf("accel: workload %s writes to unconfigured region %q", w.Name(), name)
		}
		layout, err := sh.Layout(name)
		if err != nil {
			return RunResult{}, err
		}
		ct, tags, err := shield.SealRegionData(*rc, layout.RegionID, dek, img)
		if err != nil {
			return RunResult{}, err
		}
		if err := dram.RawWrite(layout.DataBase, ct); err != nil {
			return RunResult{}, err
		}
		if err := dram.RawWrite(layout.TagBase, tags); err != nil {
			return RunResult{}, err
		}
		if err := sh.MarkPreloaded(name); err != nil {
			return RunResult{}, err
		}
	}
	sh.ResetStats() // provisioning/preload is not part of the measured phase
	shieldInit := params.ShieldInitCycles

	ctx := &Ctx{Mem: sh, Regs: sh.Registers()}
	if err := w.Run(ctx); err != nil {
		return RunResult{}, err
	}
	if err := sh.Flush(); err != nil {
		return RunResult{}, err
	}

	// Host DMAs results out; Data Owner opens and checks them.
	outputs := make(map[string][]byte)
	for _, name := range w.OutputRegions() {
		rc := regionByName(cfg, name)
		layout, err := sh.Layout(name)
		if err != nil {
			return RunResult{}, err
		}
		ct, err := dram.RawRead(layout.DataBase, int(layout.DataSize))
		if err != nil {
			return RunResult{}, err
		}
		tags, err := dram.RawRead(layout.TagBase, int(layout.TagSize))
		if err != nil {
			return RunResult{}, err
		}
		var counters []uint32
		if rc.Freshness {
			snap, err := sh.CounterSnapshot(name)
			if err != nil {
				return RunResult{}, err
			}
			counters = snap.Counters
		}
		img, err := shield.OpenRegionData(*rc, layout.RegionID, dek, ct, tags, counters)
		if err != nil {
			return RunResult{}, fmt.Errorf("accel: opening %s results: %w", name, err)
		}
		outputs[name] = img
	}
	if err := w.Check(inputs, outputs); err != nil {
		return RunResult{}, fmt.Errorf("accel: %s shielded run produced wrong output: %w", w.Name(), err)
	}

	rep := sh.Report()
	res := RunResult{
		MemCycles:     rep.MemoryCycles(),
		ComputeCycles: ctx.ComputeCycles(),
		Report:        rep,
	}
	res.Cycles = combine(params.InitCycles+shieldInit, rep.MemoryCycles()+rep.RegisterCycles, ctx.ComputeCycles())
	return res, nil
}

// Overhead is the normalized execution time the paper plots: shielded
// cycles over bare cycles.
func Overhead(shielded, bare RunResult) float64 {
	if bare.Cycles == 0 {
		return 0
	}
	return float64(shielded.Cycles) / float64(bare.Cycles)
}

func regionByName(cfg shield.Config, name string) *shield.RegionConfig {
	for i := range cfg.Regions {
		if cfg.Regions[i].Name == name {
			return &cfg.Regions[i]
		}
	}
	return nil
}

// dramSizeFor sizes the simulated device memory to cover all regions plus
// their tag arrays.
func dramSizeFor(cfg shield.Config) uint64 {
	var maxEnd uint64
	var tagBytes uint64
	for _, r := range cfg.Regions {
		if end := r.Base + r.Size; end > maxEnd {
			maxEnd = end
		}
		tagBytes += uint64(r.Chunks() * shield.TagSize)
	}
	const align = 4096
	size := (maxEnd+align-1)/align*align + tagBytes + align
	if size < 1<<20 {
		size = 1 << 20
	}
	return size
}
