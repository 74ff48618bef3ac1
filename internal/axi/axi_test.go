package axi

import (
	"testing"

	"shef/internal/mem"
	"shef/internal/perf"
)

// streamSpy wraps a MemoryPort and records whether the streaming path ran.
type streamSpy struct {
	MemoryPort
	streamed bool
}

func (s *streamSpy) ReadStream(addr uint64, buf []byte) (uint64, error) {
	s.streamed = true
	return s.MemoryPort.ReadBurst(addr, buf)
}

func (s *streamSpy) WriteStream(addr uint64, data []byte) (uint64, error) {
	s.streamed = true
	return s.MemoryPort.WriteBurst(addr, data)
}

func TestReadWriteAutoDispatch(t *testing.T) {
	d := mem.NewDRAM(1<<20, perf.Default())
	// Plain port: falls back to bursts.
	if _, err := WriteAuto(d, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := ReadAuto(d, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatal("fallback roundtrip lost data")
	}
	// Streaming port: dispatches to the streamer.
	spy := &streamSpy{MemoryPort: d}
	if _, err := WriteAuto(spy, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if !spy.streamed {
		t.Fatal("WriteAuto ignored the streaming path")
	}
	spy.streamed = false
	if _, err := ReadAuto(spy, 0, buf[:1]); err != nil {
		t.Fatal(err)
	}
	if !spy.streamed {
		t.Fatal("ReadAuto ignored the streaming path")
	}
}

func TestForEachRunCapped(t *testing.T) {
	collect := func(idx []int, max int) [][2]int {
		var runs [][2]int
		if err := ForEachRunCapped(idx, max, func(i0, n int) error {
			runs = append(runs, [2]int{i0, n})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return runs
	}
	cases := []struct {
		idx  []int
		max  int
		want [][2]int
	}{
		{nil, 4, nil},
		{[]int{7}, 4, [][2]int{{7, 1}}},
		// One long run splits into max-sized windows plus the remainder.
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 4, [][2]int{{0, 4}, {4, 4}, {8, 2}}},
		// Gaps still delimit runs; the cap applies within each run.
		{[]int{1, 2, 3, 10, 11, 12, 13, 14, 20}, 3, [][2]int{{1, 3}, {10, 3}, {13, 2}, {20, 1}}},
		// max < 1 means uncapped: identical to ForEachRun.
		{[]int{5, 6, 7, 9}, 0, [][2]int{{5, 3}, {9, 1}}},
		// A cap of one degenerates to per-index calls.
		{[]int{3, 4, 5}, 1, [][2]int{{3, 1}, {4, 1}, {5, 1}}},
	}
	for i, c := range cases {
		got := collect(c.idx, c.max)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: runs %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: runs %v, want %v", i, got, c.want)
			}
		}
	}
}

// gatherSpy wraps a MemoryPort and records whether the gather path ran.
type gatherSpy struct {
	MemoryPort
	gathered bool
}

func (g *gatherSpy) ReadGather(runs []Burst, buf []byte) (uint64, error) {
	g.gathered = true
	return ReadGatherAuto(g.MemoryPort, runs, buf)
}

func (g *gatherSpy) WriteGather(runs []Burst, data []byte) (uint64, error) {
	g.gathered = true
	return WriteGatherAuto(g.MemoryPort, runs, data)
}

func TestGatherAutoDispatch(t *testing.T) {
	d := mem.NewDRAM(1<<20, perf.Default())
	runs := []Burst{{Addr: 0, Len: 4}, {Addr: 64, Len: 8}, {Addr: 256, Len: 4}}
	packed := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	// Plain port: one WriteAuto per run, scattered to the right addresses.
	if _, err := WriteGatherAuto(d, runs, packed); err != nil {
		t.Fatal(err)
	}
	var probe [8]byte
	if _, err := d.ReadBurst(64, probe[:]); err != nil {
		t.Fatal(err)
	}
	if probe[0] != 5 || probe[7] != 12 {
		t.Fatalf("scattered write misplaced: %v", probe)
	}
	// And gathered back in run order.
	got := make([]byte, len(packed))
	if _, err := ReadGatherAuto(d, runs, got); err != nil {
		t.Fatal(err)
	}
	for i := range packed {
		if got[i] != packed[i] {
			t.Fatalf("gather read byte %d: got %d want %d", i, got[i], packed[i])
		}
	}
	// Gather-capable port: dispatches to the gather engine.
	spy := &gatherSpy{MemoryPort: d}
	if _, err := WriteGatherAuto(spy, runs, packed); err != nil {
		t.Fatal(err)
	}
	if !spy.gathered {
		t.Fatal("WriteGatherAuto ignored the gather path")
	}
	spy.gathered = false
	if _, err := ReadGatherAuto(spy, runs, got); err != nil {
		t.Fatal(err)
	}
	if !spy.gathered {
		t.Fatal("ReadGatherAuto ignored the gather path")
	}
}

// TestBurstsFor pins AXI legalisation as the cycle model charges it: one
// request per MaxBurstBytes (256 beats of 64 bytes), rounded up.
func TestBurstsFor(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {-1, 0}, {1, 1}, {MaxBurstBytes, 1}, {MaxBurstBytes + 1, 2},
		{16 * (512 + 16), 1}, {16 * (4096 + 16), 5},
	} {
		if got := BurstsFor(c.n); got != c.want {
			t.Errorf("BurstsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
