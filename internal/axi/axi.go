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

// Streamer is a MemoryPort with a bulk multi-chunk path: the transfer is
// pipelined (batched fetch, engine fan-out, overlapped stages) instead of
// served beat by beat. The Shield implements it, keyed or bare; it is the
// port an accelerator's context holds.
type Streamer interface {
	MemoryPort
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

// BurstsFor is the number of AXI transactions a transfer of n bytes
// legalises into (MaxBurstBytes each): batched streams pay the request
// latency once per legal burst, not once per chunk.
func BurstsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + MaxBurstBytes - 1) / MaxBurstBytes
}

// MaxBurstBytes is the largest legal AXI4 burst (256 beats of 64 bytes).
const MaxBurstBytes = 256 * 64

// Burst is one AXI4 transaction.
type Burst struct {
	Addr uint64
	Len  int
}

func (b Burst) String() string { return fmt.Sprintf("[%#x +%d]", b.Addr, b.Len) }
