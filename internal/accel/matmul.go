package accel

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"shef/internal/shield"
)

// MatMul is the second §6.2.2 microbenchmark: C = A × B over int32
// matrices. Matrix multiplication "involves more computation per data
// accessed" than vector add, so Shield overheads are less pronounced
// (the paper reports a maximum of 1.26x for AES/4x).
type MatMul struct {
	// N is the square matrix dimension.
	N int
	// Lanes is the MAC-array width of the datapath (MACs per cycle).
	Lanes int
}

const (
	mmChunk   = 512
	mmABase   = 0x0000_0000
	mmBBase   = 0x1000_0000
	mmOutBase = 0x2000_0000
)

// NewMatMul builds the workload; params may set "n" and "lanes".
func NewMatMul(params map[string]string) (Workload, error) {
	m := &MatMul{N: 128, Lanes: 32}
	if s, ok := params["n"]; ok {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 || n%mmChunk/4 < 0 {
			return nil, fmt.Errorf("accel: matmul n %q invalid", s)
		}
		m.N = n
	}
	if s, ok := params["lanes"]; ok {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("accel: matmul lanes %q invalid", s)
		}
		m.Lanes = n
	}
	if m.N%128 != 0 {
		return nil, fmt.Errorf("accel: matmul n=%d must be a multiple of 128 (chunk alignment)", m.N)
	}
	return m, nil
}

func init() { Register("matmul", NewMatMul) }

// Name implements Workload.
func (m *MatMul) Name() string { return "matmul" }

func (m *MatMul) matBytes() int { return m.N * m.N * 4 }

// ShieldConfig gives A and B streaming engine sets with a buffer large
// enough to hold rows/columns, and an output set. Two engine sets per
// input match the microbenchmark's four-set layout.
func (m *MatMul) ShieldConfig(variant Variant) shield.Config {
	half := uint64(m.matBytes() / 2)
	mk := func(name string, base uint64, size uint64, buf int) shield.RegionConfig {
		return shield.RegionConfig{
			Name: name, Base: base, Size: size, ChunkSize: mmChunk,
			AESEngines: 1, SBox: variant.SBox, KeySize: variant.KeySize,
			MAC: variant.MAC(), BufferBytes: buf,
		}
	}
	// A streams row by row (double buffer); B is reused n times, so its
	// partitions get buffers that hold them entirely — the systolic
	// array's stationary operand.
	rowBuf := 4 * m.N * 4
	return shield.Config{
		Regions: []shield.RegionConfig{
			mk("a0", mmABase, half, rowBuf),
			mk("a1", mmABase+half, half, rowBuf),
			mk("b0", mmBBase, half, int(half)),
			mk("b1", mmBBase+half, half, int(half)),
			mk("o", mmOutBase, uint64(m.matBytes()), 2*mmChunk),
		},
		Registers: 8,
	}
}

// Inputs generates A and B, each split across its two partitions.
func (m *MatMul) Inputs(rng *rand.Rand) map[string][]byte {
	half := m.matBytes() / 2
	out := make(map[string][]byte, 4)
	for _, name := range []string{"a0", "a1", "b0", "b1"} {
		img := make([]byte, half)
		rng.Read(img)
		out[name] = img
	}
	return out
}

// element addresses: A row-major at mmABase (contiguous across the two
// partition regions), B row-major at mmBBase.
func (m *MatMul) readRow(ctx *Ctx, base uint64, row int, buf []byte) error {
	_, err := ctx.Mem.ReadBurst(base+uint64(row*m.N*4), buf)
	return err
}

// streamRow reads a row through the pipelined streaming path: right for
// the moving operand (A, read once), wrong for the stationary operand (B,
// whose rows live in the on-chip buffer and must stay cached).
func (m *MatMul) streamRow(ctx *Ctx, base uint64, row int, buf []byte) error {
	return ctx.ReadStream(base+uint64(row*m.N*4), buf)
}

// Run performs blocked matrix multiply: for each row of A, stream the row,
// then stream B column blocks. B is accessed row-wise per k to stay
// burst-friendly (the classic ikj loop).
func (m *MatMul) Run(ctx *Ctx) error {
	n := m.N
	rowA := make([]byte, n*4)
	rowB := make([]byte, n*4)
	var a, b []uint32
	acc := make([]uint32, n)
	out := make([]byte, n*4)
	for i := 0; i < n; i++ {
		if err := m.streamRow(ctx, mmABase, i, rowA); err != nil {
			return err
		}
		a = decodeWords(a, rowA)
		clear(acc)
		for k, aik := range a {
			if err := m.readRow(ctx, mmBBase, k, rowB); err != nil {
				return err
			}
			b = decodeWords(b, rowB)
			acc := acc[:len(b)]
			for j, bkj := range b {
				acc[j] += aik * bkj
			}
		}
		// n² MACs for this output row, m.Lanes MACs per cycle.
		ctx.Compute(uint64(n*n) / uint64(m.Lanes))
		for j, v := range acc {
			binary.LittleEndian.PutUint32(out[4*j:4*j+4], v)
		}
		if err := ctx.WriteStream(mmOutBase+uint64(i*n*4), out); err != nil {
			return err
		}
	}
	return nil
}

// OutputRegions implements Workload.
func (m *MatMul) OutputRegions() []string { return []string{"o"} }

// Check recomputes the product on the host.
func (m *MatMul) Check(inputs, outputs map[string][]byte) error {
	n := m.N
	a := append(append([]byte{}, inputs["a0"]...), inputs["a1"]...)
	b := append(append([]byte{}, inputs["b0"]...), inputs["b1"]...)
	o := outputs["o"]
	at := func(img []byte, r, c int) uint32 { return binary.LittleEndian.Uint32(img[(r*n+c)*4:]) }
	// Spot-check a deterministic sample of entries; full n³ verification
	// would dominate test time for large n.
	step := n/8 + 1
	for i := 0; i < n; i += step {
		for j := 0; j < n; j += step {
			var want uint32
			for k := 0; k < n; k++ {
				want += at(a, i, k) * at(b, k, j)
			}
			if got := at(o, i, j); got != want {
				return fmt.Errorf("C[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
	return nil
}
