package accel

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"shef/internal/parallel"
	"shef/internal/shield"
)

// DNNWeaver is the Figure 6 DNN-inference workload: DNNWeaver running a
// LeNet-class network (§6.2.4). Its two memory behaviours get separate
// engine sets:
//
//   - Weights: streamed once per batch in large reads. Cmem = 4 KB, 4 AES
//     engines + 1 HMAC (or 4 PMAC), 128 KB buffer, no counters. The long
//     serial HMAC over 4 KB chunks is the reported bottleneck (3.20x-3.83x),
//     which swapping in PMAC reduces to 2.31x.
//   - Feature maps: small random reads and writes. Cmem = 64 B, 4 AES + 1
//     HMAC, 64 KB buffer, with on-chip integrity counters (~16 KB for the
//     ~1 MB region) because activations are rewritten.
type DNNWeaver struct {
	// Dims are the fully-connected layer widths (LeNet-class MLP).
	Dims []int
	// Batch is the number of inputs per invocation.
	Batch int
	// Lanes is the MAC-array width.
	Lanes int
}

const (
	dwWChunk  = 4096
	dwFChunk  = 64
	dwWBase   = 0x0000_0000
	dwFBase   = 0x1000_0000
	dwOutBase = 0x2000_0000
)

// NewDNNWeaver builds the workload; params: "batch", "lanes".
func NewDNNWeaver(params map[string]string) (Workload, error) {
	d := &DNNWeaver{Dims: []int{784, 512, 128, 10}, Batch: 48, Lanes: 80}
	for key, dst := range map[string]*int{"batch": &d.Batch, "lanes": &d.Lanes} {
		if s, ok := params[key]; ok {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("accel: dnnweaver %s=%q invalid", key, s)
			}
			*dst = n
		}
	}
	return d, nil
}

func init() { Register("dnnweaver", NewDNNWeaver) }

// Name implements Workload.
func (d *DNNWeaver) Name() string { return "dnnweaver" }

func (d *DNNWeaver) weightCount() int {
	n := 0
	for l := 0; l+1 < len(d.Dims); l++ {
		n += d.Dims[l] * d.Dims[l+1]
	}
	return n
}

func (d *DNNWeaver) weightBytes() int { return alignUp(d.weightCount()*4, dwWChunk) }

// perImageActs is the activation footprint of one image in the feature-map
// region: every layer's activations, 4 bytes each, 64-byte aligned.
func (d *DNNWeaver) perImageActs() int {
	n := 0
	for _, w := range d.Dims {
		n += alignUp(w*4, dwFChunk)
	}
	return n
}

func (d *DNNWeaver) fmapBytes() int { return alignUp(d.Batch*d.perImageActs(), dwFChunk) }
func (d *DNNWeaver) outBytes() int {
	return alignUp(d.Batch*alignUp(d.Dims[len(d.Dims)-1]*4, dwFChunk), dwFChunk)
}

// ShieldConfig builds the two-set configuration described above plus a
// small streaming output region.
func (d *DNNWeaver) ShieldConfig(variant Variant) shield.Config {
	weightMAC := shield.HMAC
	if variant.PMAC {
		weightMAC = shield.PMAC
	}
	return shield.Config{
		Regions: []shield.RegionConfig{
			{
				Name: "weights", Base: dwWBase, Size: uint64(d.weightBytes()),
				ChunkSize: dwWChunk, AESEngines: 4, SBox: variant.SBox,
				KeySize: variant.KeySize, MAC: weightMAC,
				BufferBytes: 128 << 10,
			},
			{
				Name: "fmaps", Base: dwFBase, Size: uint64(d.fmapBytes()),
				ChunkSize: dwFChunk, AESEngines: 4, SBox: variant.SBox,
				KeySize: variant.KeySize, MAC: shield.HMAC,
				BufferBytes: 64 << 10, Freshness: true,
			},
			{
				Name: "out", Base: dwOutBase, Size: uint64(d.outBytes()),
				ChunkSize: dwFChunk, AESEngines: 1, SBox: variant.SBox,
				KeySize: variant.KeySize, MAC: shield.HMAC,
				BufferBytes: 4 << 10,
			},
		},
		Registers: 8,
	}
}

// Inputs provisions the weights and the batch's input activations (layer
// 0 of each image's activation strip).
func (d *DNNWeaver) Inputs(rng *rand.Rand) map[string][]byte {
	w := make([]byte, d.weightBytes())
	rng.Read(w)
	f := make([]byte, d.fmapBytes())
	per := d.perImageActs()
	in0 := alignUp(d.Dims[0]*4, dwFChunk)
	for b := 0; b < d.Batch; b++ {
		rng.Read(f[b*per : b*per+in0])
	}
	return map[string][]byte{"weights": w, "fmaps": f}
}

// actBase returns the feature-map address of image b's layer-l activations.
func (d *DNNWeaver) actBase(b, l int) uint64 {
	off := b * d.perImageActs()
	for i := 0; i < l; i++ {
		off += alignUp(d.Dims[i]*4, dwFChunk)
	}
	return dwFBase + uint64(off)
}

// Run performs batched inference: weights stream through their engine set
// per layer; activations are read and written in the feature-map region.
func (d *DNNWeaver) Run(ctx *Ctx) error {
	// Stream all weights once through the pipelined burst engine (the
	// 4 KB-chunk engine set fetches, decrypts, and verifies in windows).
	weights := make([]byte, d.weightBytes())
	if err := ctx.ReadStream(dwWBase, weights); err != nil {
		return err
	}
	wOff := make([]int, len(d.Dims))
	{
		off := 0
		for l := 0; l+1 < len(d.Dims); l++ {
			wOff[l] = off
			off += d.Dims[l] * d.Dims[l+1] * 4
		}
	}
	outAll := make([]byte, d.outBytes())
	outPer := alignUp(d.Dims[len(d.Dims)-1]*4, dwFChunk)
	var act []uint32
	for b := 0; b < d.Batch; b++ {
		for l := 0; l+1 < len(d.Dims); l++ {
			nin, nout := d.Dims[l], d.Dims[l+1]
			in := make([]byte, nin*4)
			// Activations stay on the chunked path: they are the "small
			// random reads and writes" case, served by the 64 KB buffer,
			// and write-through streaming would defeat that cache.
			if _, err := ctx.Mem.ReadBurst(d.actBase(b, l), in); err != nil {
				return err
			}
			act = decodeWords(act, in)
			out := make([]byte, nout*4)
			// Output neurons are split across Ps; each writes only its own
			// words of out.
			parallel.For(nout, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					// Weights are read in place: a decoded copy of the
					// whole tensor would double its resident size.
					o := wOff[l] + 4*j*nin
					acc := dot(act, weights[o:o+4*len(act)])
					// ReLU-like nonlinearity on the integer domain.
					if acc&0x8000_0000 != 0 {
						acc = 0
					}
					binary.LittleEndian.PutUint32(out[j*4:], acc)
				}
			})
			ctx.Compute(uint64(nin*nout) / uint64(d.Lanes))
			if _, err := ctx.Mem.WriteBurst(d.actBase(b, l+1), out); err != nil {
				return err
			}
		}
		// Copy the final layer to the output region.
		last := make([]byte, d.Dims[len(d.Dims)-1]*4)
		if _, err := ctx.Mem.ReadBurst(d.actBase(b, len(d.Dims)-1), last); err != nil {
			return err
		}
		copy(outAll[b*outPer:], last)
	}
	if err := ctx.WriteStream(dwOutBase, outAll); err != nil {
		return err
	}
	return nil
}

// dot is the wraparound dot product of act with the little-endian words
// of wb. Four independent accumulators let the multiplies overlap; uint32
// addition is associative, so the sum equals the serial one bit for bit.
func dot(act []uint32, wb []byte) uint32 {
	wb = wb[:4*len(act)]
	var a0, a1, a2, a3 uint32
	i := 0
	for ; i+4 <= len(act); i += 4 {
		a := act[i : i+4 : i+4]
		w := wb[4*i : 4*i+16 : 4*i+16]
		a0 += a[0] * binary.LittleEndian.Uint32(w[0:4])
		a1 += a[1] * binary.LittleEndian.Uint32(w[4:8])
		a2 += a[2] * binary.LittleEndian.Uint32(w[8:12])
		a3 += a[3] * binary.LittleEndian.Uint32(w[12:16])
	}
	for ; i < len(act); i++ {
		a0 += act[i] * binary.LittleEndian.Uint32(wb[4*i:4*i+4])
	}
	return a0 + a1 + a2 + a3
}

// OutputRegions implements Workload.
func (d *DNNWeaver) OutputRegions() []string { return []string{"out"} }

// Check re-runs inference for a sample of images on the host. The sampled
// images are checked across Ps, each by checkImage, and Check reports the
// lowest-index image that disagrees.
func (d *DNNWeaver) Check(inputs, outputs map[string][]byte) error {
	var sample []int
	for b, step := 0, d.Batch/6+1; b < d.Batch; b += step {
		sample = append(sample, b)
	}
	weights, fmaps, out := inputs["weights"], inputs["fmaps"], outputs["out"]
	errs := make([]error, len(sample))
	parallel.For(len(sample), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = d.checkImage(sample[i], weights, fmaps, out)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkImage recomputes image b's logits from its input activations and
// the weights, one serial dot product per neuron, and compares them with
// the image's slot of out.
func (d *DNNWeaver) checkImage(b int, weights, fmaps, out []byte) error {
	outPer := alignUp(d.Dims[len(d.Dims)-1]*4, dwFChunk)
	act := make([]uint32, d.Dims[0])
	for i := range act {
		act[i] = binary.LittleEndian.Uint32(fmaps[b*d.perImageActs()+i*4:])
	}
	wOff := 0
	for l := 0; l+1 < len(d.Dims); l++ {
		nin, nout := d.Dims[l], d.Dims[l+1]
		next := make([]uint32, nout)
		for j := 0; j < nout; j++ {
			var acc uint32
			for i := 0; i < nin; i++ {
				acc += act[i] * binary.LittleEndian.Uint32(weights[wOff+(j*nin+i)*4:])
			}
			if acc&0x8000_0000 != 0 {
				acc = 0
			}
			next[j] = acc
		}
		act = next
		wOff += nin * nout * 4
	}
	for j, v := range act {
		if got := binary.LittleEndian.Uint32(out[b*outPer+j*4:]); got != v {
			return fmt.Errorf("image %d logit %d = %d, want %d", b, j, got, v)
		}
	}
	return nil
}
