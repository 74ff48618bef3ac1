package accel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/perf"
)

// withProcs runs f at GOMAXPROCS=procs and restores the old setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// bareOutputs runs w bare and returns the images its harness handed to
// Check. A failed Check is reported but still returns the images, so the
// caller's full comparison runs too.
func bareOutputs(t *testing.T, w Workload, seed int64) (inputs, outputs map[string][]byte) {
	t.Helper()
	rec := &outputRecorder{Workload: w}
	if _, err := RunBare(rec, perf.Default(), seed); err != nil {
		t.Error(err)
	}
	if rec.outputs == nil {
		t.FailNow()
	}
	return rec.inputs, rec.outputs
}

// joinRegions concatenates the images of prefix0 .. prefix(parts-1).
func joinRegions(images map[string][]byte, prefix string, parts int) []byte {
	var out []byte
	for i := 0; i < parts; i++ {
		out = append(out, images[fmt.Sprintf("%s%d", prefix, i)]...)
	}
	return out
}

// wordAt is the little-endian word at word index i of b.
func wordAt(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }

// firstWordDiff is the index of the first word where got and want differ.
func firstWordDiff(got, want []byte) int {
	i := 0
	for i < len(got)/4 && i < len(want)/4 && wordAt(got, i) == wordAt(want, i) {
		i++
	}
	return i
}

// naiveConv computes c's whole output space, alignment padding included,
// straight from the flat input and weight tensors.
func naiveConv(c *Conv, in, w []byte) []byte {
	out := make([]byte, c.partSize(c.outBytes(), convOutSets)*convOutSets)
	pad := c.K / 2
	for b := 0; b < c.Batch; b++ {
		for y := 0; y < c.H; y++ {
			for x := 0; x < c.W; x++ {
				for co := 0; co < c.Cout; co++ {
					var sum uint32
					for kh := 0; kh < c.K; kh++ {
						for kw := 0; kw < c.K; kw++ {
							yy, xx := y+kh-pad, x+kw-pad
							if yy < 0 || yy >= c.H || xx < 0 || xx >= c.W {
								continue
							}
							for ci := 0; ci < c.Cin; ci++ {
								sum += wordAt(in, ((b*c.H+yy)*c.W+xx)*c.Cin+ci) *
									wordAt(w, ((kh*c.K+kw)*c.Cin+ci)*c.Cout+co)
							}
						}
					}
					binary.LittleEndian.PutUint32(out[4*(((b*c.H+y)*c.W+x)*c.Cout+co):], sum)
				}
			}
		}
	}
	return out
}

// naiveDNNWeaver computes d's whole output region straight from the
// weight and feature-map images.
func naiveDNNWeaver(d *DNNWeaver, weights, fmaps []byte) []byte {
	last := d.Dims[len(d.Dims)-1]
	outPer := alignUp(last*4, dwFChunk)
	out := make([]byte, d.outBytes())
	for b := 0; b < d.Batch; b++ {
		act := make([]uint32, d.Dims[0])
		for i := range act {
			act[i] = wordAt(fmaps[b*d.perImageActs():], i)
		}
		wOff := 0
		for l := 0; l+1 < len(d.Dims); l++ {
			nin, nout := d.Dims[l], d.Dims[l+1]
			next := make([]uint32, nout)
			for j := range next {
				for i := 0; i < nin; i++ {
					next[j] += act[i] * wordAt(weights[wOff:], j*nin+i)
				}
				if int32(next[j]) < 0 {
					next[j] = 0
				}
			}
			wOff += 4 * nin * nout
			act = next
		}
		for j, v := range act {
			binary.LittleEndian.PutUint32(out[b*outPer+4*j:], v)
		}
	}
	return out
}

// TestSplitKernelsMatchReference compares every output word of bare conv
// and DNNWeaver runs on ragged geometries (widths that are not multiples
// of four, fewer pixels or neurons than workers) with a naive reference,
// at several worker counts. Each design's Check samples only a few words.
func TestSplitKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var convs []*Conv
	for _, w := range []int{1, 2, 3, 7} {
		for _, k := range []int{1, 3, 5} {
			convs = append(convs, &Conv{
				H: 1 + rng.Intn(6), W: w, K: k,
				Cin:   1 + rng.Intn(5),
				Cout:  []int{1, 2, 3, 5, 6, 7, 9, 13}[rng.Intn(8)],
				Batch: 1 + rng.Intn(3),
				Lanes: 64,
			})
		}
	}
	var dnns []*DNNWeaver
	for i, dims := range [][]int{{13, 7, 5}, {6, 9, 3, 2}, {1, 5, 1}, {30, 11}, {17, 1, 3}, {10, 23, 10}} {
		dnns = append(dnns, &DNNWeaver{Dims: dims, Batch: 1 + i%3, Lanes: 80})
	}
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(procs, func() {
			for i, c := range convs {
				in, out := bareOutputs(t, c, int64(i))
				want := naiveConv(c, joinRegions(in, "in", convInSets), joinRegions(in, "w", convWSets))
				if got := joinRegions(out, "out", convOutSets); !bytes.Equal(got, want) {
					j := firstWordDiff(got, want)
					t.Errorf("GOMAXPROCS=%d conv %+v: %d output bytes, want %d; first wrong word %d",
						procs, *c, len(got), len(want), j)
				}
			}
			for i, d := range dnns {
				in, out := bareOutputs(t, d, int64(i))
				want := naiveDNNWeaver(d, in["weights"], in["fmaps"])
				if got := out["out"]; !bytes.Equal(got, want) {
					j := firstWordDiff(got, want)
					t.Errorf("GOMAXPROCS=%d dnnweaver %+v: %d output bytes, want %d; first wrong word %d",
						procs, *d, len(got), len(want), j)
				}
			}
		})
	}
}
