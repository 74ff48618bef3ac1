package accel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/perf"
)

// serialNonce is the nonce search as one loop: the lowest winning nonce
// below maxNonce and the nonces tried to find it, or all maxNonce tried.
func serialNonce(hdr *[76]byte, difficulty int, maxNonce uint32) (nonce uint32, tried uint64, found bool) {
	var full [80]byte
	copy(full[:76], hdr[:])
	for n := uint32(0); n < maxNonce; n++ {
		binary.LittleEndian.PutUint32(full[76:], n)
		tried++
		if meetsDifficulty(doubleSHA(full[:]), difficulty) {
			return n, tried, true
		}
	}
	return 0, tried, false
}

// TestSplitNonceSearchMatchesSerial: the split nonce search returns the
// serial search's nonce and tried count, and a bare Bitcoin run its
// cycles and posted nonce, at one, two and four Ps. The headers are
// those RunBare draws from each seed. Nine run at difficulties 8 to 16;
// the pinned ones put the winner in the first or the last piece of a
// window after the first, where at two and four Ps the other workers'
// pieces below it must still finish; the last one exhausts MaxNonce
// partway through a window.
func TestSplitNonceSearchMatchesSerial(t *testing.T) {
	type tc struct {
		seed       int64
		difficulty int
		maxNonce   uint32
		place      string // "first" or "last" piece of its window, "none" for no winner, or ""
	}
	var cases []tc
	for i := range 9 {
		cases = append(cases, tc{int64(i + 1), 8 + i, 1 << 20, ""})
	}
	cases = append(cases,
		tc{13, 14, 1 << 20, "first"},
		tc{36, 15, 1 << 20, "first"},
		tc{211, 14, 1 << 20, "last"},
		tc{56, 16, 1 << 20, "last"},
		tc{1, 20, 2*nonceWindow + 777, "none"},
	)
	params := perf.Default()
	for _, c := range cases {
		var hdr [76]byte
		rand.New(rand.NewSource(c.seed)).Read(hdr[:])
		want, wantTried, wantFound := serialNonce(&hdr, c.difficulty, c.maxNonce)
		name := fmt.Sprintf("seed %d difficulty %d", c.seed, c.difficulty)
		off := want % nonceWindow
		// A piece is at least a 32nd of a window (at four Ps).
		switch {
		case c.place == "first" && (want < nonceWindow || off >= nonceWindow/32):
			t.Fatalf("%s: winner %d is not in the first piece of a later window", name, want)
		case c.place == "last" && (want < nonceWindow || off < nonceWindow-nonceWindow/32):
			t.Fatalf("%s: winner %d is not in the last piece of a later window", name, want)
		case c.place == "none" && wantFound:
			t.Fatalf("%s: serial search found %d below %d", name, want, c.maxNonce)
		}
		var refCycles uint64
		for _, procs := range []int{1, 2, 4} {
			withProcs(procs, func() {
				name := fmt.Sprintf("%s at GOMAXPROCS=%d", name, procs)
				got, tried, found := searchNonce(&hdr, c.difficulty, c.maxNonce)
				if got != want || tried != wantTried || found != wantFound {
					t.Errorf("%s: search = %d, %d tried, found %t; serial %d, %d tried, found %t",
						name, got, tried, found, want, wantTried, wantFound)
				}
				b := &Bitcoin{Difficulty: c.difficulty, MaxNonce: c.maxNonce}
				res, err := RunBare(b, params, c.seed)
				if !wantFound {
					wantErr := fmt.Sprintf("accel: no nonce below %d met difficulty %d", c.maxNonce, c.difficulty)
					if err == nil || err.Error() != wantErr {
						t.Errorf("%s: RunBare error %v, want %q", name, err, wantErr)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				compute := wantTried * hashCyclesPerNonce
				if b.nonce != want || res.ComputeCycles != compute ||
					res.Cycles != combine(params.InitCycles, res.MemCycles, compute) {
					t.Errorf("%s: posted %d, %d/%d compute/total cycles; serial %d, %d compute cycles",
						name, b.nonce, res.ComputeCycles, res.Cycles, want, compute)
				}
				if refCycles == 0 {
					refCycles = res.Cycles
				} else if res.Cycles != refCycles {
					t.Errorf("%s: %d cycles, %d at GOMAXPROCS=1", name, res.Cycles, refCycles)
				}
			})
		}
	}
}

// serialDigitRec is DigitRec with the kernel that classifies each
// training chunk as it reads it: one pass of Units lanes at a time.
type serialDigitRec struct{ *DigitRec }

func (s serialDigitRec) Run(ctx *Ctx) error {
	d := s.DigitRec
	testBuf := make([]byte, alignUp(d.testBytes(), drChunk))
	if _, err := ctx.Mem.ReadBurst(drTestBase, testBuf); err != nil {
		return err
	}
	out := make([]byte, d.outBytes())
	chunk := make([]byte, drChunk)
	for t0 := 0; t0 < d.Tests; t0 += d.Units {
		lanes := min(d.Units, d.Tests-t0)
		tvs := make([]uint64, lanes)
		knns := make([]*knnState, lanes)
		for l := range lanes {
			tvs[l] = binary.LittleEndian.Uint64(testBuf[(t0+l)*8:])
			knns[l] = newKNN(d.K)
		}
		for off := 0; off < d.trainBytes(); off += drChunk {
			if _, err := ctx.Mem.ReadBurst(uint64(drTrainBase+off), chunk); err != nil {
				return err
			}
			for i := 0; i < drChunk; i += 8 {
				w := binary.LittleEndian.Uint64(chunk[i:])
				for l := range lanes {
					knns[l].consider(bits.OnesCount64((w^tvs[l])&(1<<49-1)), byte(w>>60))
				}
			}
			ctx.Compute(drChunk / 8)
		}
		for l := range lanes {
			out[t0+l] = knns[l].vote()
		}
	}
	_, err := ctx.Mem.WriteBurst(drOutBase, out)
	return err
}

// TestSplitDigitRecMatchesSerial: DigitRec's split classification
// writes the serial kernel's labels, every one of them, and its bare and
// shielded runs take the serial kernel's cycles, at one, two and four
// Ps. Five and three lanes leave a short last pass, and the pieces of
// the split cut passes.
func TestSplitDigitRecMatchesSerial(t *testing.T) {
	for i, d := range []*DigitRec{
		{Train: 2048, Tests: 64, K: 3, Units: 8},
		{Train: 1024, Tests: 128, K: 5, Units: 5},
		{Train: 4096, Tests: 64, K: 1, Units: 3},
	} {
		seed := int64(30 + i)
		ref := &outputRecorder{Workload: serialDigitRec{d}}
		refBare, err := RunBare(ref, perf.Default(), seed)
		if err != nil {
			t.Fatal(err)
		}
		refShielded, err := RunShielded(serialDigitRec{d}, V128x16, perf.Default(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			withProcs(procs, func() {
				name := fmt.Sprintf("%+v at GOMAXPROCS=%d", *d, procs)
				rec := &outputRecorder{Workload: d}
				bare, err := RunBare(rec, perf.Default(), seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(rec.outputs["out"], ref.outputs["out"]) {
					t.Errorf("%s: labels differ from the serial kernel's", name)
				}
				shielded, err := RunShielded(d, V128x16, perf.Default(), seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if bare.Cycles != refBare.Cycles || shielded.Cycles != refShielded.Cycles {
					t.Errorf("%s: bare/shielded cycles %d/%d, serial kernel %d/%d",
						name, bare.Cycles, shielded.Cycles, refBare.Cycles, refShielded.Cycles)
				}
			})
		}
	}
}

// TestAccelSplitsStartNoGoroutines: a bare Bitcoin or DigitRec run
// leaves the goroutine count where it was, at one P and after its splits
// at four Ps.
func TestAccelSplitsStartNoGoroutines(t *testing.T) {
	bitcoin := &Bitcoin{Difficulty: 14, MaxNonce: 1 << 20}
	digitrec := &DigitRec{Train: 2048, Tests: 64, K: 3, Units: 8}
	for _, procs := range []int{1, 4} {
		for _, w := range []Workload{bitcoin, digitrec} {
			withProcs(procs, func() {
				before := runtime.NumGoroutine()
				if _, err := RunBare(w, perf.Default(), 13); err != nil {
					t.Fatal(err)
				}
				// A helper is on its way out once its split returns; give
				// it the samples the Shield's goroutine tests give theirs.
				n := runtime.NumGoroutine()
				for i := 0; i < 100000 && n > before; i++ {
					runtime.Gosched()
					n = runtime.NumGoroutine()
				}
				if n > before {
					t.Errorf("%s at GOMAXPROCS=%d: %d goroutines after, %d before", w.Name(), procs, n, before)
				}
			})
		}
	}
}
