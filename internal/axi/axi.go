// Package axi defines the transaction-level model of the AXI4 and
// AXI4-Lite interfaces the Shell exposes to accelerators (paper §5.1).
//
// The Shield is "a wrapper module that transparently secures these
// interfaces": it presents the same MemoryPort/RegisterPort shapes to the
// accelerator that the Shell presents to it, so accelerators are oblivious
// to whether they run shielded or bare.
package axi

import "fmt"

// MemoryPort is the AXI4 full interface at transaction level: burst reads
// and writes against device memory. Implementations return the simulated
// cycle cost of the transaction.
type MemoryPort interface {
	// ReadBurst fills buf from addr.
	ReadBurst(addr uint64, buf []byte) (cycles uint64, err error)
	// WriteBurst stores data at addr.
	WriteBurst(addr uint64, data []byte) (cycles uint64, err error)
}

// RegisterPort is the AXI4-Lite interface: single-beat access to
// memory-mapped registers. Registers are 64-bit.
type RegisterPort interface {
	ReadReg(index int) (value uint64, cycles uint64, err error)
	WriteReg(index int, value uint64) (cycles uint64, err error)
}

// Streamer is an optional MemoryPort extension for bulk multi-chunk
// transfers: implementations pipeline the burst (batched fetch, engine
// fan-out, overlapped stages) instead of serving it beat by beat. The
// Shield's streaming data path implements it; plain DRAM does not need to.
type Streamer interface {
	ReadStream(addr uint64, buf []byte) (cycles uint64, err error)
	WriteStream(addr uint64, data []byte) (cycles uint64, err error)
}

// Gatherer is an optional MemoryPort extension for scatter-gather bulk
// transfers: the runs — disjoint, ascending, chunk-aligned where the port
// requires it — travel as ONE pipelined stream, so the pipeline fill/drain
// cost is paid once per gather instead of once per run. buf/data pack the
// runs back to back in order. The Shield's stream engine implements it;
// Path ORAM uses it to move a whole root-to-leaf path per access.
type Gatherer interface {
	ReadGather(runs []Burst, buf []byte) (cycles uint64, err error)
	WriteGather(runs []Burst, data []byte) (cycles uint64, err error)
}

// checkGather validates what every gather implementation must hold: runs
// with positive lengths whose total matches the packed buffer. (Ports add
// their own constraints on top — the Shield also requires chunk-aligned,
// ascending, disjoint runs.)
func checkGather(runs []Burst, n int) error {
	total := 0
	for _, r := range runs {
		if r.Len <= 0 {
			return fmt.Errorf("axi: gather run %v has no length", r)
		}
		total += r.Len
	}
	if total != n {
		return fmt.Errorf("axi: gather buffer %d bytes, runs carry %d", n, total)
	}
	return nil
}

// ReadGatherAuto reads the runs through the port's gather engine when it
// has one, falling back to one ReadAuto per run.
func ReadGatherAuto(p MemoryPort, runs []Burst, buf []byte) (uint64, error) {
	if err := checkGather(runs, len(buf)); err != nil {
		return 0, err
	}
	if g, ok := p.(Gatherer); ok {
		return g.ReadGather(runs, buf)
	}
	var total uint64
	off := 0
	for _, r := range runs {
		c, err := ReadAuto(p, r.Addr, buf[off:off+r.Len])
		total += c
		if err != nil {
			return total, err
		}
		off += r.Len
	}
	return total, nil
}

// WriteGatherAuto writes the runs through the port's gather engine when it
// has one, falling back to one WriteAuto per run.
func WriteGatherAuto(p MemoryPort, runs []Burst, data []byte) (uint64, error) {
	if err := checkGather(runs, len(data)); err != nil {
		return 0, err
	}
	if g, ok := p.(Gatherer); ok {
		return g.WriteGather(runs, data)
	}
	var total uint64
	off := 0
	for _, r := range runs {
		c, err := WriteAuto(p, r.Addr, data[off:off+r.Len])
		total += c
		if err != nil {
			return total, err
		}
		off += r.Len
	}
	return total, nil
}

// ForEachRun groups ascending indices into maximal contiguous runs and
// invokes fn(i0, n) for each run of n consecutive indices starting at
// i0. Streaming ports use it to coalesce chunk fetches into batched
// transactions.
func ForEachRun(idx []int, fn func(i0, n int) error) error {
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && idx[j+1] == idx[j]+1 {
			j++
		}
		if err := fn(idx[i], j-i+1); err != nil {
			return err
		}
		i = j + 1
	}
	return nil
}

// ForEachRunCapped is ForEachRun with a ceiling on the run length: maximal
// contiguous runs longer than max indices are split into max-sized
// windows. Batched write-back uses it to bound how many chunks one
// pipelined store transaction carries. max < 1 means uncapped.
func ForEachRunCapped(idx []int, max int, fn func(i0, n int) error) error {
	return ForEachRun(idx, func(i0, n int) error {
		if max < 1 {
			return fn(i0, n)
		}
		for off := 0; off < n; off += max {
			w := n - off
			if w > max {
				w = max
			}
			if err := fn(i0+off, w); err != nil {
				return err
			}
		}
		return nil
	})
}

// BurstsFor is the number of AXI transactions a transfer of n bytes
// legalises into (MaxBurstBytes each): batched streams pay the request
// latency once per legal burst, not once per chunk.
func BurstsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + MaxBurstBytes - 1) / MaxBurstBytes
}

// ReadAuto reads through the port's streaming path when it has one,
// falling back to a plain burst. Accelerators use it for bulk transfers
// so the same code runs shielded (pipelined) and bare.
func ReadAuto(p MemoryPort, addr uint64, buf []byte) (uint64, error) {
	if st, ok := p.(Streamer); ok {
		return st.ReadStream(addr, buf)
	}
	return p.ReadBurst(addr, buf)
}

// WriteAuto writes through the port's streaming path when it has one.
func WriteAuto(p MemoryPort, addr uint64, data []byte) (uint64, error) {
	if st, ok := p.(Streamer); ok {
		return st.WriteStream(addr, data)
	}
	return p.WriteBurst(addr, data)
}

// MaxBurstBytes is the largest legal AXI4 burst (256 beats of 64 bytes).
const MaxBurstBytes = 256 * 64

// Burst is one AXI4 transaction.
type Burst struct {
	Addr uint64
	Len  int
}

func (b Burst) String() string { return fmt.Sprintf("[%#x +%d]", b.Addr, b.Len) }
