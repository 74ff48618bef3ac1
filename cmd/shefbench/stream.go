package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

// streamRegion is the stream workload's region: 512-byte chunks, 16 AES
// engines at 16x S-box parallelism, HMAC, a 4-line buffer and no
// freshness counters.
func streamRegion(size uint64) shield.RegionConfig {
	return shield.RegionConfig{
		Name: "bulk", Base: 0, Size: size, ChunkSize: chunkBytes,
		AESEngines: 16, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: shield.HMAC, BufferBytes: 4 * chunkBytes,
	}
}

// streamGeom sizes the stream workload: a region swept by op-sized
// ReadStream/WriteStream calls whose payloads come from a pool of images.
type streamGeom struct {
	region, op, pool, smokeOps int
}

func streamGeometry(smoke bool) streamGeom {
	if smoke {
		return streamGeom{region: 2 << 20, op: 256 << 10, pool: 3, smokeOps: 16}
	}
	return streamGeom{region: 64 << 20, op: 1 << 20, pool: 8}
}

// streamRig is a provisioned Shield over one region, plus the harness's
// record of which pool image each op-sized slot last received.
type streamRig struct {
	g        streamGeom
	dram     *mem.DRAM
	sh       *shield.Shield
	dek      []byte
	regionID uint32
	pool     [][]byte
	last     []int
	buf      []byte
}

func newStreamRig(seed int64, g streamGeom) (*streamRig, error) {
	params := perf.Default()
	rc := streamRegion(uint64(g.region))
	cfg := shield.Config{Regions: []shield.RegionConfig{rc}, Registers: 4}
	dram := mem.NewDRAM(uint64(g.region+g.region/chunkBytes*shield.TagSize+1<<20), params)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		return nil, err
	}
	sh, err := shield.New(cfg, priv, dram, mem.NewOCM(1<<30), params)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	dek := make([]byte, 32)
	rng.Read(dek)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		return nil, err
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		return nil, err
	}
	layout, err := sh.Layout(rc.Name)
	if err != nil {
		return nil, err
	}
	s := &streamRig{
		g: g, dram: dram, sh: sh, dek: dek, regionID: layout.RegionID,
		last: make([]int, g.region/g.op),
		buf:  make([]byte, g.op),
	}
	for i := 0; i < g.pool; i++ {
		img := make([]byte, g.op)
		rng.Read(img)
		s.pool = append(s.pool, img)
	}
	for slot := range s.last {
		s.last[slot] = rng.Intn(g.pool)
		if _, err := sh.WriteStream(uint64(slot*g.op), s.pool[s.last[slot]]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// close retires the region's engine set. A Shield dropped without it
// keeps its fan-out workers, and through them its DRAM, alive.
func (s *streamRig) close() error {
	return s.sh.DestroyRegion("", "bulk")
}

// streamPhase is what one measured phase of the stream workload saw.
type streamPhase struct {
	all, reads, writes series
	done               []time.Duration
	cycles             uint64
}

// phase runs the closed loop: passes over the region's slots in a seeded
// order, half of each pass ReadStream and half WriteStream of a seeded
// pool image. Every read is checked against the image the slot last
// received. With rf set (the traced phase), one reference op of each
// kind follows every op, on the op's chunk indices.
func (s *streamRig) phase(rng *rand.Rand, b budget, t *tracer, rf *refs, res *run) streamPhase {
	var p streamPhase
	slots := len(s.last)
	kinds := make([]bool, slots)
	for i := range kinds {
		kinds[i] = i < slots/2
	}
	start := time.Now()
	for ops := 0; b.more(ops); {
		order := rng.Perm(slots)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for i, slot := range order {
			if !b.more(ops) {
				break
			}
			ops++
			res.attempted++
			addr := uint64(slot * s.g.op)
			write, img := kinds[i], rng.Intn(s.g.pool)
			var cyc uint64
			var err error
			t.begin(opSpan)
			opStart := time.Now()
			if write {
				t.begin("shield.write_stream")
				cyc, err = s.sh.WriteStream(addr, s.pool[img])
			} else {
				t.begin("shield.read_stream")
				cyc, err = s.sh.ReadStream(addr, s.buf)
			}
			t.end()
			d := time.Since(opStart)
			t.end()
			if err != nil {
				res.fail(fmt.Errorf("stream op at %#x: %w", addr, err))
				continue
			}
			p.all.add(d)
			p.done = append(p.done, time.Since(start))
			p.cycles += cyc
			if write {
				p.writes.add(d)
				s.last[slot] = img
			} else {
				p.reads.add(d)
				if !bytes.Equal(s.buf, s.pool[s.last[slot]]) {
					res.violate("stream: ReadStream at %#x returned bytes other than pool image %d", addr, s.last[slot])
				}
			}
			if rf != nil {
				if err := rf.all(t, slot*s.g.op/chunkBytes); err != nil {
					res.fail(fmt.Errorf("stream reference ops: %w", err))
				}
			}
		}
	}
	return p
}

// verify reads the whole region back, op by op, against the harness's
// record of which image each slot last received.
func (s *streamRig) verify(res *run) {
	for slot, img := range s.last {
		res.attempted++
		addr := uint64(slot * s.g.op)
		if _, err := s.sh.ReadStream(addr, s.buf); err != nil {
			res.fail(fmt.Errorf("stream final read at %#x: %w", addr, err))
			continue
		}
		if !bytes.Equal(s.buf, s.pool[img]) {
			res.violate("stream: final read at %#x does not hold pool image %d", addr, img)
		}
	}
}

func runStream(rc runConfig) (*run, error) {
	g := streamGeometry(rc.smoke)
	s, setup, err := timeSetup(rc, func() (*streamRig, error) { return newStreamRig(rc.seed, g) }, (*streamRig).close)
	if err != nil {
		return nil, err
	}
	res := newRun()
	res.set("setup_s", "s", setup)
	rng := rand.New(rand.NewSource(rc.seed + 1))
	share := 1.0
	if rc.trace {
		share = 0.5
	}
	s.sh.ResetStats()
	s.dram.ResetStats()
	p := s.phase(rng, rc.budget(share, s.g.smokeOps), nil, nil, res)
	ops := len(p.all)
	res.rate(p.done)
	res.latencyMetrics("", p.all)
	res.latencyMetrics("read_", p.reads)
	res.latencyMetrics("write_", p.writes)
	res.set("sim_cycles_per_op", "cycles", ratio(float64(p.cycles), float64(ops)))
	rep := s.sh.Report()
	var windows, misses uint64
	for _, r := range rep.Regions {
		windows += r.StreamWindows
		misses += r.Misses
	}
	res.set("shield.sim.windows_per_op", "count", ratio(float64(windows), float64(ops)))
	res.set("shield.sim.misses_per_op", "count", ratio(float64(misses), float64(ops)))
	_, _, rb, wb := s.dram.Stats()
	res.set("mem.bytes_per_user_byte", "ratio", ratio(float64(rb+wb), float64(ops*s.g.op)))

	if rc.trace {
		rf, err := newRefs(streamRegion(uint64(s.g.region)), s.regionID, s.dek, s.g.op, rc.seed)
		if err != nil {
			return nil, err
		}
		t := newTracer(time.Now(), 0)
		s.phase(rng, rc.budget(share, s.g.smokeOps), t, rf, res)
		ts := mergeTracers(t)
		s.traceMetrics(res, ts, p)
		if err := finishTrace(rc, res, ts); err != nil {
			return nil, err
		}
	}
	s.verify(res)
	return res, nil
}

// traceMetrics derives the stream ledger: Shield time per MiB next to the
// sealer, DRAM and stdlib floors on the same geometry.
func (s *streamRig) traceMetrics(res *run, ts *traceSet, untraced streamPhase) {
	perMiB := float64(1<<20) / float64(s.g.op)
	refMetrics(res, ts, s.g.op)
	// The Shield fans a window over min(GOMAXPROCS, engines) workers; the
	// single-goroutine references are scaled by that width.
	width := float64(min(runtime.GOMAXPROCS(0), streamRegion(0).AESEngines))
	floor := 0.0
	for _, k := range []string{"floor.ctr", "floor.hmac", "floor.memcpy"} {
		floor += res.metrics[k+".ms_per_MiB"].Value
	}
	for _, dir := range []struct{ op, sealer, mem string }{
		{"read_stream", "sealer.open", "mem.read_burst"},
		{"write_stream", "sealer.seal", "mem.write_burst"},
	} {
		wall := ts.layer("shield."+dir.op).durs.quantile(0.5) * perMiB
		res.set("shield."+dir.op+".ms_per_MiB", "ms", wall)
		known := res.metrics[dir.sealer+".ms_per_MiB"].Value + res.metrics[dir.mem+".ms_per_MiB"].Value
		res.set("shield."+dir.op+".unattributed_share", "ratio", 1-ratio(known, wall*width))
		res.set("shield."+dir.op+".efficiency", "ratio", ratio(floor/width, wall))
	}
	res.set("trace_overhead_pct", "%", 100*(ratio(ts.layer(opSpan).durs.mean(), untraced.all.mean())-1))
}
