package accel

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"shef/internal/parallel"
	"shef/internal/shield"
)

// Conv is the Figure 6 convolution workload: one convolutional layer from
// a Xilinx reference implementation with a 27×27×96 input, 5×5 filters,
// and a 27×27×256 output over 32-bit values (§6.2.4). It achieves high
// parallelism by streaming batches of feature maps and filters; the paper
// configures 8 engine sets for inputs and weights and 4 for outputs, with
// 512-byte chunks, observing 1.20x-1.35x overheads.
type Conv struct {
	// H, W, Cin, Cout, K are the layer dimensions (paper defaults).
	H, W, Cin, Cout, K int
	// Batch is the number of images streamed per invocation.
	Batch int
	// Lanes is the MAC-array width (MACs per cycle).
	Lanes int
}

const (
	convChunk   = 512
	convInBase  = 0x0000_0000
	convWBase   = 0x2000_0000
	convOutBase = 0x4000_0000
	convInSets  = 4 // input feature-map engine sets
	convWSets   = 4 // weight engine sets (inputs+weights = 8, §6.2.4)
	convOutSets = 4
)

// NewConv builds the workload. Params: "h", "w", "cin", "cout", "k",
// "batch", "lanes". Defaults are the paper's layer at batch 2 with a
// 4096-lane MAC array.
func NewConv(params map[string]string) (Workload, error) {
	// Defaults are a scaled-down layer for fast functional runs; the
	// benchmark harness passes the paper's 27×27×96 → 27×27×256 dims.
	c := &Conv{H: 27, W: 27, Cin: 16, Cout: 64, K: 5, Batch: 1, Lanes: 4096}
	for key, dst := range map[string]*int{
		"h": &c.H, "w": &c.W, "cin": &c.Cin, "cout": &c.Cout,
		"k": &c.K, "batch": &c.Batch, "lanes": &c.Lanes,
	} {
		if s, ok := params[key]; ok {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("accel: conv %s=%q invalid", key, s)
			}
			*dst = n
		}
	}
	return c, nil
}

func init() { Register("conv", NewConv) }

// Name implements Workload.
func (c *Conv) Name() string { return "conv" }

func (c *Conv) inBytes() int  { return c.Batch * c.H * c.W * c.Cin * 4 }
func (c *Conv) wBytes() int   { return c.K * c.K * c.Cin * c.Cout * 4 }
func (c *Conv) outBytes() int { return c.Batch * c.H * c.W * c.Cout * 4 }

func alignUp(n, a int) int { return (n + a - 1) / a * a }

// ShieldConfig splits inputs, weights, and outputs across their engine
// sets; streaming access, no replay counters (read-once / write-once,
// §6.2.4: "we can save on-chip memory by disabling integrity counters").
func (c *Conv) ShieldConfig(variant Variant) shield.Config {
	var regions []shield.RegionConfig
	split := func(prefix string, base uint64, total, parts, buf int) {
		part := alignUp(alignUp(total, parts)/parts, convChunk)
		for i := 0; i < parts; i++ {
			regions = append(regions, shield.RegionConfig{
				Name:        fmt.Sprintf("%s%d", prefix, i),
				Base:        base + uint64(i*part),
				Size:        uint64(part),
				ChunkSize:   convChunk,
				AESEngines:  1,
				SBox:        variant.SBox,
				KeySize:     variant.KeySize,
				MAC:         variant.MAC(),
				BufferBytes: buf,
			})
		}
	}
	// 128KB read buffer across input+weight sets, 64KB across output sets
	// (§6.2.4).
	split("in", convInBase, c.inBytes(), convInSets, 128<<10/(convInSets+convWSets))
	split("w", convWBase, c.wBytes(), convWSets, 128<<10/(convInSets+convWSets))
	split("out", convOutBase, c.outBytes(), convOutSets, 64<<10/convOutSets)
	return shield.Config{Regions: regions, Registers: 8}
}

// Inputs fills the feature-map and weight partitions.
func (c *Conv) Inputs(rng *rand.Rand) map[string][]byte {
	out := make(map[string][]byte)
	fill := func(prefix string, total, parts int) {
		part := alignUp(alignUp(total, parts)/parts, convChunk)
		for i := 0; i < parts; i++ {
			img := make([]byte, part)
			rng.Read(img)
			out[fmt.Sprintf("%s%d", prefix, i)] = img
		}
	}
	fill("in", c.inBytes(), convInSets)
	fill("w", c.wBytes(), convWSets)
	return out
}

// partSize is the per-partition byte size after chunk alignment.
func (c *Conv) partSize(total, parts int) int {
	return alignUp(alignUp(total, parts)/parts, convChunk)
}

// Run streams the convolution: for each batch image and output channel
// block, read input tiles and weights through the port's pipelined
// streaming path, MAC, and stream the output rows back. Values use
// wraparound int32 arithmetic (hardware-exact).
func (c *Conv) Run(ctx *Ctx) error {
	// Load weights once per image block (streamed, buffered by the Shield).
	weights := make([]byte, c.wBytes())
	if err := spanParts(convWBase, c.partSize(len(weights), convWSets), 0, weights, ctx.ReadStream); err != nil {
		return err
	}
	// Each weight is reused H×W times per image: decode the tensor once.
	w32 := decodeWords(nil, weights)
	inPart := c.partSize(c.inBytes(), convInSets)
	inRow := make([]byte, c.W*c.Cin*4)
	outTotal := c.outBytes()
	outPart := c.partSize(outTotal, convOutSets)
	outRow := make([]byte, c.W*c.Cout*4)
	// Sliding window of decoded input rows for the current image.
	rows := make([][]uint32, c.H)

	for b := 0; b < c.Batch; b++ {
		// Stream the image's rows in.
		for y := 0; y < c.H; y++ {
			// A row may straddle partitions; spanParts splits the read.
			off := ((b*c.H + y) * c.W * c.Cin) * 4
			if err := spanParts(convInBase, inPart, off, inRow, ctx.ReadStream); err != nil {
				return err
			}
			rows[y] = decodeWords(rows[y], inRow)
		}
		// Compute and stream each output row. The row's pixels are split
		// across Ps; each worker accumulates into its own array, which
		// makes the innermost loop run contiguously over the weight layout,
		// and encodes only its own pixels into outRow.
		for y := 0; y < c.H; y++ {
			parallel.For(c.W, func(lo, hi int) {
				acc := make([]uint32, c.Cout)
				for x := lo; x < hi; x++ {
					c.pixel(acc, rows, w32, y, x)
					o := outRow[x*c.Cout*4 : (x+1)*c.Cout*4]
					for co, v := range acc {
						binary.LittleEndian.PutUint32(o[4*co:4*co+4], v)
					}
				}
			})
			// MACs for this row: W * Cout * K² * Cin.
			ctx.Compute(uint64(c.W*c.Cout*c.K*c.K*c.Cin) / uint64(c.Lanes))
			off := ((b*c.H + y) * c.W * c.Cout) * 4
			if err := spanParts(convOutBase, outPart, off, outRow, ctx.WriteStream); err != nil {
				return err
			}
		}
	}
	// Zero the chunk-alignment padding at the end of the output space so
	// every output chunk carries valid ciphertext for the export path.
	pad := make([]byte, outPart*convOutSets-outTotal)
	return spanParts(convOutBase, outPart, outTotal, pad, ctx.WriteStream)
}

// pixel sets acc to output pixel (y, x) of the image whose decoded input
// rows are rows, over the decoded weights w32. Each pass over the Cout
// accumulators adds four input channels, so acc is loaded and stored once
// per four weight rows; uint32 arithmetic wraps, so the sums equal the
// channel-at-a-time ones bit for bit.
func (c *Conv) pixel(acc []uint32, rows [][]uint32, w32 []uint32, y, x int) {
	pad := c.K / 2
	n := c.Cout
	acc = acc[:n]
	clear(acc)
	for kh := 0; kh < c.K; kh++ {
		yy := y + kh - pad
		if yy < 0 || yy >= c.H {
			continue
		}
		for kw := 0; kw < c.K; kw++ {
			xx := x + kw - pad
			if xx < 0 || xx >= c.W {
				continue
			}
			px := rows[yy][xx*c.Cin : (xx+1)*c.Cin]
			w := w32[(kh*c.K+kw)*c.Cin*n:][:c.Cin*n]
			ci := 0
			for ; ci+4 <= len(px); ci += 4 {
				a0, a1, a2, a3 := px[ci], px[ci+1], px[ci+2], px[ci+3]
				w0 := w[ci*n : (ci+1)*n]
				w1 := w[(ci+1)*n : (ci+2)*n][:len(w0)]
				w2 := w[(ci+2)*n : (ci+3)*n][:len(w0)]
				w3 := w[(ci+3)*n : (ci+4)*n][:len(w0)]
				acc := acc[:len(w0)]
				for co, wv := range w0 {
					acc[co] += a0*wv + a1*w1[co] + a2*w2[co] + a3*w3[co]
				}
			}
			for ; ci < len(px); ci++ {
				a := px[ci]
				wr := w[ci*n : (ci+1)*n]
				acc := acc[:len(wr)]
				for co, wv := range wr {
					acc[co] += a * wv
				}
			}
		}
	}
}

// spanParts calls op on each piece of buf that falls in one part-byte
// partition of the tensor at base, starting off bytes into the tensor:
// partitions are separate regions, and no transfer may cross regions.
func spanParts(base uint64, part, off int, buf []byte, op func(addr uint64, b []byte) error) error {
	for len(buf) > 0 {
		n := min(part-off%part, len(buf))
		if err := op(base+uint64(off), buf[:n]); err != nil {
			return err
		}
		off += n
		buf = buf[n:]
	}
	return nil
}

// OutputRegions implements Workload.
func (c *Conv) OutputRegions() []string {
	out := make([]string, convOutSets)
	for i := range out {
		out[i] = fmt.Sprintf("out%d", i)
	}
	return out
}

// Check recomputes a sample of output pixels on the host.
func (c *Conv) Check(inputs, outputs map[string][]byte) error {
	// Reassemble flat tensors from partitions.
	join := func(prefix string, parts int) []byte {
		var out []byte
		for i := 0; i < parts; i++ {
			out = append(out, inputs[fmt.Sprintf("%s%d", prefix, i)]...)
		}
		return out
	}
	in := join("in", convInSets)
	w := join("w", convWSets)
	var outFlat []byte
	for i := 0; i < convOutSets; i++ {
		outFlat = append(outFlat, outputs[fmt.Sprintf("out%d", i)]...)
	}
	inAt := func(b, y, x, ci int) uint32 {
		if y < 0 || y >= c.H || x < 0 || x >= c.W {
			return 0
		}
		idx := ((b*c.H+y)*c.W+x)*c.Cin + ci
		return binary.LittleEndian.Uint32(in[idx*4:])
	}
	wAt := func(kh, kw, ci, co int) uint32 {
		idx := ((kh*c.K+kw)*c.Cin+ci)*c.Cout + co
		return binary.LittleEndian.Uint32(w[idx*4:])
	}
	pad := c.K / 2
	// Deterministic sample of output positions.
	for _, pos := range [][3]int{{0, 0, 0}, {c.H / 2, c.W / 2, c.Cout / 2}, {c.H - 1, c.W - 1, c.Cout - 1}} {
		y, x, co := pos[0], pos[1], pos[2]
		for b := 0; b < c.Batch; b++ {
			var want uint32
			for kh := 0; kh < c.K; kh++ {
				for kw := 0; kw < c.K; kw++ {
					for ci := 0; ci < c.Cin; ci++ {
						want += inAt(b, y+kh-pad, x+kw-pad, ci) * wAt(kh, kw, ci, co)
					}
				}
			}
			idx := ((b*c.H+y)*c.W+x)*c.Cout + co
			if got := binary.LittleEndian.Uint32(outFlat[idx*4:]); got != want {
				return fmt.Errorf("out[%d,%d,%d,%d] = %d, want %d", b, y, x, co, got, want)
			}
		}
	}
	return nil
}
