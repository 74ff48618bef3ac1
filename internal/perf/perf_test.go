package perf

import (
	"testing"
	"testing/quick"
)

func TestDRAMCycles(t *testing.T) {
	p := Default()
	if got := p.DRAMCycles(0); got != 0 {
		t.Errorf("DRAMCycles(0) = %d, want 0", got)
	}
	// 16 bytes at 16 B/cycle = 1 cycle + request overhead.
	if got := p.DRAMCycles(16); got != p.DRAMRequestCycles+1 {
		t.Errorf("DRAMCycles(16) = %d, want %d", got, p.DRAMRequestCycles+1)
	}
	// 4KB burst: 256 data cycles + overhead.
	if got := p.DRAMCycles(4096); got != p.DRAMRequestCycles+256 {
		t.Errorf("DRAMCycles(4096) = %d", got)
	}
}

func TestDRAMCyclesMonotone(t *testing.T) {
	p := Default()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return p.DRAMCycles(x) <= p.DRAMCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkTime(t *testing.T) {
	p := Default() // alpha = 0.35
	if got := p.ChunkTime(100, 100); got != 135 {
		t.Errorf("ChunkTime(100,100) = %d, want 135", got)
	}
	if got := p.ChunkTime(100, 0); got != 100 {
		t.Errorf("ChunkTime(100,0) = %d, want 100", got)
	}
	if p.ChunkTime(10, 400) != p.ChunkTime(400, 10) {
		t.Error("ChunkTime not symmetric")
	}
	// Bounded by max and sum of the stages.
	f := func(a, b uint32) bool {
		d, c := uint64(a), uint64(b)
		ct := p.ChunkTime(d, c)
		hi := d
		if c > hi {
			hi = c
		}
		return ct >= hi && ct <= d+c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeconds(t *testing.T) {
	p := Default()
	if got := p.Seconds(uint64(p.ClockHz)); got != 1.0 {
		t.Errorf("Seconds(clockHz) = %v, want 1.0", got)
	}
}

func TestStreamWindowTimePacedBySlowestStage(t *testing.T) {
	p := Default()
	if got := p.StreamWindowTime(100, 700, 300, 50); got != 700 {
		t.Errorf("StreamWindowTime = %d, want 700 (slowest stage)", got)
	}
	if got := p.StreamWindowTime(); got != 0 {
		t.Errorf("empty window = %d, want 0", got)
	}
}

func TestStreamFillDrainIsNonBottleneckSum(t *testing.T) {
	p := Default()
	if got := p.StreamFillDrain(100, 700, 300, 50); got != 450 {
		t.Errorf("StreamFillDrain = %d, want 450 (sum minus bottleneck)", got)
	}
	// A uniform stream of n windows composes to n*max + fill/drain, always
	// at most the fully serial sum and at least the bottleneck alone.
	n := uint64(10)
	a, b := uint64(600), uint64(400)
	total := n*p.StreamWindowTime(a, b) + p.StreamFillDrain(a, b)
	if total >= n*(a+b) {
		t.Errorf("pipelined total %d not better than serial %d", total, n*(a+b))
	}
	if total < n*a {
		t.Errorf("pipelined total %d beats the bottleneck stage %d", total, n*a)
	}
}
