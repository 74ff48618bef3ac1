package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"shef/internal/accel"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

// accelDesign is one accelerator of a round with its Figure 6 quick-scale
// parameters (vecadd at 800 KiB) and the much smaller smoke parameters.
type accelDesign struct {
	name        string
	full, smoke map[string]string
}

var accelDesigns = []accelDesign{
	{"conv", map[string]string{"cin": "32", "cout": "96", "batch": "1", "lanes": "1024"}, map[string]string{"cin": "8", "cout": "16", "batch": "1"}},
	{"digitrec", map[string]string{"train": "8192", "tests": "64"}, map[string]string{"train": "2048", "tests": "64"}},
	{"affine", map[string]string{"dim": "256"}, map[string]string{"dim": "128"}},
	{"dnnweaver", map[string]string{"batch": "24"}, map[string]string{"batch": "2"}},
	{"bitcoin", map[string]string{"difficulty": "15"}, map[string]string{"difficulty": "10"}},
	{"vecadd", map[string]string{"bytes": "819200"}, map[string]string{"bytes": "65536"}},
}

// accelDataSeed generates every design's input data (Figure 6's seed).
// The data is fixed rather than drawn from the benchmark seed because
// bitcoin's nonce search, and so its run time, depends on its data; the
// benchmark seed orders the designs within each round.
const accelDataSeed = 21

// accelRig holds each design's parameters and the simulated result of its
// set-up reference run, which every later run must reproduce exactly.
type accelRig struct {
	params []map[string]string
	ref    []accel.RunResult
}

func newAccelRig(smoke bool) (*accelRig, error) {
	r := &accelRig{}
	for i, d := range accelDesigns {
		p := d.full
		if smoke {
			p = d.smoke
		}
		r.params = append(r.params, p)
		res, err := r.shielded(i)
		if err != nil {
			return nil, err
		}
		r.ref = append(r.ref, res)
	}
	return r, nil
}

// shielded runs design i as accel.RunShielded does: a fresh Shield built
// from the design's configuration and provisioned with a Load Key, then
// accel.RunOnShield. Unlike RunShielded it retires the Shield afterwards.
// A Shield left alone keeps its fan-out workers, and through them its
// DRAM, alive: dnnweaver's streams would leak about 2.4 MiB per run, and
// peak memory would grow with the number of rounds run.
func (r *accelRig) shielded(i int) (accel.RunResult, error) {
	w, err := accel.New(accelDesigns[i].name, r.params[i])
	if err != nil {
		return accel.RunResult{}, err
	}
	params := perf.Default()
	cfg := w.ShieldConfig(accel.V128x16)
	// DRAM pages are allocated on first touch, so the size only has to
	// cover the regions and the tag shadow above them.
	var end, tags uint64
	for _, rc := range cfg.Regions {
		end = max(end, rc.Base+rc.Size)
		tags += uint64(rc.Chunks() * shield.TagSize)
	}
	dram := mem.NewDRAM(end+tags+1<<20, params)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		return accel.RunResult{}, err
	}
	sh, err := shield.New(cfg, priv, dram, mem.NewOCM(1<<33), params)
	if err != nil {
		return accel.RunResult{}, err
	}
	dek := make([]byte, 32)
	rand.New(rand.NewSource(accelDataSeed)).Read(dek)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		return accel.RunResult{}, err
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		return accel.RunResult{}, err
	}
	res, err := accel.RunOnShield(w, sh, dram, dek, params, accelDataSeed)
	for _, rc := range cfg.Regions {
		err = errors.Join(err, sh.DestroyRegion("", rc.Name))
	}
	return res, err
}

func (r *accelRig) bare(i int) (accel.RunResult, error) {
	w, err := accel.New(accelDesigns[i].name, r.params[i])
	if err != nil {
		return accel.RunResult{}, err
	}
	return accel.RunBare(w, perf.Default(), accelDataSeed)
}

// accelPhase is what one measured phase of rounds saw.
type accelPhase struct {
	rounds series
	done   []time.Duration
	cycles uint64
	misses uint64
	// bareCycles per design, from the traced phase's RunBare calls.
	bareCycles []uint64
}

// phase runs rounds: every design once, in a seeded order. RunOnShield
// checks its own outputs; the harness checks the simulated cycles against
// the set-up reference. With t set, each round
// is followed (outside the round's span) by RunBare of every design.
func (r *accelRig) phase(rng *rand.Rand, b budget, t *tracer, res *run) accelPhase {
	p := accelPhase{bareCycles: make([]uint64, len(accelDesigns))}
	start := time.Now()
	for rounds := 0; b.more(rounds); rounds++ {
		res.attempted++
		ok := true
		t.begin(opSpan)
		roundStart := time.Now()
		for _, i := range rng.Perm(len(accelDesigns)) {
			t.begin("accel." + accelDesigns[i].name)
			got, err := r.shielded(i)
			t.end()
			if err != nil {
				res.fail(fmt.Errorf("accel %s: %w", accelDesigns[i].name, err))
				ok = false
				continue
			}
			if got.Cycles != r.ref[i].Cycles {
				res.violate("accel: %s ran %d simulated cycles, set-up reference %d", accelDesigns[i].name, got.Cycles, r.ref[i].Cycles)
			}
			p.cycles += got.Cycles
			for _, rs := range got.Report.Regions {
				p.misses += rs.Misses
			}
		}
		d := time.Since(roundStart)
		t.end()
		if ok {
			p.rounds.add(d)
			p.done = append(p.done, time.Since(start))
		}
		if t == nil {
			continue
		}
		for i, d := range accelDesigns {
			t.begin("accel." + d.name + ".bare")
			got, err := r.bare(i)
			t.end()
			if err != nil {
				res.fail(fmt.Errorf("accel %s bare: %w", d.name, err))
				continue
			}
			p.bareCycles[i] = got.Cycles
		}
	}
	return p
}

func runAccel(rc runConfig) (*run, error) {
	r, setup, err := timeSetup(rc, func() (*accelRig, error) { return newAccelRig(rc.smoke) }, func(*accelRig) error { return nil })
	if err != nil {
		return nil, err
	}
	res := newRun()
	res.set("setup_s", "s", setup)
	share := 1.0
	if rc.trace {
		share = 0.5
	}
	rng := rand.New(rand.NewSource(rc.seed + 1))
	p := r.phase(rng, rc.budget(share, 1), nil, res)
	n := float64(len(p.rounds))
	res.rate(p.done)
	res.latencyMetrics("", p.rounds)
	res.set("sim_cycles_per_op", "cycles", ratio(float64(p.cycles), n))
	res.set("shield.sim.misses_per_op", "count", ratio(float64(p.misses), n))
	if rc.trace {
		t := newTracer(time.Now(), 0)
		tp := r.phase(rng, rc.budget(share, 1), t, res)
		ts := mergeTracers(t)
		logSum := 0.0
		for i, d := range accelDesigns {
			over := ratio(float64(r.ref[i].Cycles), float64(tp.bareCycles[i]))
			logSum += math.Log(over)
			res.set("accel."+d.name+".sim_overhead_x", "x", over)
			res.set("accel."+d.name+".shielded_ms", "ms", ts.layer("accel."+d.name).durs.quantile(0.5))
			res.set("accel."+d.name+".bare_ms", "ms", ts.layer("accel."+d.name+".bare").durs.quantile(0.5))
		}
		res.set("sim_overhead_x", "x", math.Exp(logSum/float64(len(accelDesigns))))
		res.set("trace_overhead_pct", "%", 100*(ratio(ts.layer(opSpan).durs.mean(), p.rounds.mean())-1))
		if err := finishTrace(rc, res, ts); err != nil {
			return nil, err
		}
	}
	return res, nil
}
