package accel

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"

	"shef/internal/parallel"
	"shef/internal/shield"
)

// DigitRec is the Rosetta digit-recognition workload (§6.2.4): K-nearest-
// neighbour classification of 49-pixel binary digits against a training
// set. It streams inputs without batching; the paper uses two engine sets
// for inputs (24 KB of buffer) and one for outputs (12 KB), 512-byte
// chunks, and reports 1.85x-3.15x overheads.
type DigitRec struct {
	// Train is the number of training vectors (18000 in Rosetta).
	Train int
	// Tests is the number of digits classified per run.
	Tests int
	// K is the number of neighbours voted.
	K int
	// Units is the number of parallel comparator units: each pass over
	// the training stream classifies Units digits at once (the Rosetta
	// kernel's unrolled compare lanes).
	Units int
}

const (
	drChunk     = 512
	drTrainBase = 0x0000_0000
	drTestBase  = 0x1000_0000
	drOutBase   = 0x2000_0000
	drVecBytes  = 8 // 49-bit digit in a 64-bit word
)

// NewDigitRec builds the workload; params: "train", "tests", "k".
func NewDigitRec(params map[string]string) (Workload, error) {
	d := &DigitRec{Train: 4096, Tests: 128, K: 3, Units: 8}
	for key, dst := range map[string]*int{"train": &d.Train, "tests": &d.Tests, "k": &d.K, "units": &d.Units} {
		if s, ok := params[key]; ok {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("accel: digitrec %s=%q invalid", key, s)
			}
			*dst = n
		}
	}
	// Chunk-align the training set split.
	d.Train = alignUp(d.Train, 2*drChunk/drVecBytes)
	d.Tests = alignUp(d.Tests, drChunk/drVecBytes)
	return d, nil
}

func init() { Register("digitrec", NewDigitRec) }

// Name implements Workload.
func (d *DigitRec) Name() string { return "digitrec" }

func (d *DigitRec) trainBytes() int { return d.Train * drVecBytes }
func (d *DigitRec) testBytes() int  { return d.Tests * drVecBytes }
func (d *DigitRec) outBytes() int   { return alignUp(d.Tests, drChunk) } // one label byte per test

// ShieldConfig: two input engine sets (training set split in half), one
// output set, streaming, no counters. The kernel walks the training set
// chunk by chunk (it never issues bulk bursts), so the input sets arm the
// sequential prefetcher: the Shield detects the ascending miss pattern and
// services it through pipelined stream windows transparently.
func (d *DigitRec) ShieldConfig(variant Variant) shield.Config {
	half := uint64(d.trainBytes() / 2)
	mk := func(name string, base, size uint64, buf int, prefetch bool) shield.RegionConfig {
		return shield.RegionConfig{
			Name: name, Base: base, Size: size, ChunkSize: drChunk,
			AESEngines: 1, SBox: variant.SBox, KeySize: variant.KeySize,
			MAC: variant.MAC(), BufferBytes: buf,
			SeqPrefetch: prefetch,
		}
	}
	return shield.Config{
		Regions: []shield.RegionConfig{
			// 24 KB input buffer split across the two sets; 12 KB output.
			// Only the read-side regions prefetch: the output set is
			// write-once, where fetching ahead would be pure waste.
			mk("train0", drTrainBase, half, 12<<10, true),
			mk("train1", drTrainBase+half, half, 12<<10, true),
			mk("test", drTestBase, uint64(alignUp(d.testBytes(), drChunk)), 2*drChunk, true),
			mk("out", drOutBase, uint64(d.outBytes()), 12<<10, false),
		},
		Registers: 8,
	}
}

// Inputs generates training digits (with the label packed in the top
// bits) and test digits.
func (d *DigitRec) Inputs(rng *rand.Rand) map[string][]byte {
	mkvec := func() uint64 {
		v := rng.Uint64() & (1<<49 - 1)
		label := uint64(rng.Intn(10))
		return v | label<<60
	}
	train := make([]byte, d.trainBytes())
	for i := 0; i < d.Train; i++ {
		binary.LittleEndian.PutUint64(train[i*8:], mkvec())
	}
	test := make([]byte, alignUp(d.testBytes(), drChunk))
	for i := 0; i < d.Tests; i++ {
		binary.LittleEndian.PutUint64(test[i*8:], mkvec()&(1<<49-1))
	}
	half := len(train) / 2
	return map[string][]byte{
		"train0": train[:half],
		"train1": train[half:],
		"test":   test,
	}
}

// knnState is one comparator lane: the K nearest training words seen so
// far, nearest first, and their labels.
type knnState struct {
	dist  []int
	label []byte
}

func newKNN(k int) *knnState {
	s := &knnState{dist: make([]int, k), label: make([]byte, k)}
	for i := range s.dist {
		s.dist[i] = 1 << 30
	}
	return s
}

func (s *knnState) consider(dist int, label byte) {
	// Insertion into the small sorted top-k array.
	for i := range s.dist {
		if dist < s.dist[i] {
			copy(s.dist[i+1:], s.dist[i:len(s.dist)-1])
			copy(s.label[i+1:], s.label[i:len(s.label)-1])
			s.dist[i] = dist
			s.label[i] = label
			return
		}
	}
}

func (s *knnState) vote() byte {
	var counts [10]int
	for _, l := range s.label {
		counts[l]++
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return byte(best)
}

// knnGrain is the least KNN work, in digit comparisons, a worker of
// the classification split gets: about 200 µs at 6 ns a comparison.
const knnGrain = 1 << 15

// Run streams the training set once per pass of Units test digits (the
// Rosetta kernel's access pattern) and writes one label per digit. The
// reads of every pass are issued first, each pass's bytes kept; then
// every digit is classified against its pass's bytes in one split across
// Ps. The Shield sees the same calls in the same order as a kernel that
// classifies each chunk as it arrives, since KNN touches no port.
func (d *DigitRec) Run(ctx *Ctx) error {
	testBuf := make([]byte, alignUp(d.testBytes(), drChunk))
	if _, err := ctx.Mem.ReadBurst(drTestBase, testBuf); err != nil {
		return err
	}
	tb := d.trainBytes()
	passes := (d.Tests + d.Units - 1) / d.Units
	train := make([]byte, passes*tb)
	for p := 0; p < passes; p++ {
		pass := train[p*tb : (p+1)*tb]
		for off := 0; off < tb; off += drChunk {
			if _, err := ctx.Mem.ReadBurst(uint64(drTrainBase+off), pass[off:off+drChunk]); err != nil {
				return err
			}
			// One training word per cycle through the parallel lanes.
			ctx.Compute(drChunk / 8)
		}
	}
	out := make([]byte, d.outBytes())
	var g parallel.Group
	g.Run(parallel.Workers(d.Tests*d.Train, knnGrain), d.Tests, parallel.Func(func(lo, hi int) {
		for t0 := lo; t0 < hi; {
			p := t0 / d.Units
			t1 := min(hi, (p+1)*d.Units)
			d.classify(train[p*tb:(p+1)*tb], testBuf, out, t0, t1)
			t0 = t1
		}
	}))
	if _, err := ctx.Mem.WriteBurst(drOutBase, out); err != nil {
		return err
	}
	return nil
}

// classify labels test digits [t0, t1) of tests into out, one
// comparator lane each, in one pass over the training words of train.
func (d *DigitRec) classify(train, tests, out []byte, t0, t1 int) {
	lanes := t1 - t0
	tvs := make([]uint64, lanes)
	knns := make([]*knnState, lanes)
	for l := range lanes {
		tvs[l] = binary.LittleEndian.Uint64(tests[(t0+l)*8:])
		knns[l] = newKNN(d.K)
	}
	for i := 0; i < len(train); i += 8 {
		w := binary.LittleEndian.Uint64(train[i:])
		for l := range lanes {
			dist := bits.OnesCount64((w ^ tvs[l]) & (1<<49 - 1))
			knns[l].consider(dist, byte(w>>60))
		}
	}
	for l := range lanes {
		out[t0+l] = knns[l].vote()
	}
}

// OutputRegions implements Workload.
func (d *DigitRec) OutputRegions() []string { return []string{"out"} }

// Check reruns KNN on the host for a sample of test digits.
func (d *DigitRec) Check(inputs, outputs map[string][]byte) error {
	train := append(append([]byte{}, inputs["train0"]...), inputs["train1"]...)
	test := inputs["test"]
	out := outputs["out"]
	step := d.Tests/16 + 1
	for t := 0; t < d.Tests; t += step {
		tv := binary.LittleEndian.Uint64(test[t*8:])
		knn := newKNN(d.K)
		for i := 0; i < d.Train; i++ {
			w := binary.LittleEndian.Uint64(train[i*8:])
			dist := bits.OnesCount64((w ^ tv) & (1<<49 - 1))
			knn.consider(dist, byte(w>>60))
		}
		if want := knn.vote(); out[t] != want {
			return fmt.Errorf("test %d: label %d, want %d", t, out[t], want)
		}
	}
	return nil
}
