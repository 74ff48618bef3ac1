// Package perf holds the cycle-accounting model shared by the simulated
// FPGA substrate and the Shield.
//
// All simulated time is measured in Shield-clock cycles. The default
// parameters model an AWS F1 deployment: a 250 MHz user clock and DDR4
// device memory behind the Shell's AXI4 interface. Absolute times are not
// expected to match the authors' testbed; the calibration tests assert that
// the *shape* of the paper's results (who wins, by what factor, where the
// crossovers fall) is preserved. See DESIGN.md §4.
package perf

// Params are the tunable constants of the performance model.
type Params struct {
	// ClockHz is the Shield/accelerator clock frequency.
	ClockHz float64

	// DRAMBytesPerCycle is the effective off-chip bandwidth available to the
	// accelerator's AXI4 interface, in bytes per Shield cycle, across all
	// engine sets. 16 B/cycle at 250 MHz is 4 GB/s of sustained user
	// bandwidth, in line with a single DDR4 channel behind the F1 Shell.
	DRAMBytesPerCycle float64

	// DRAMRequestCycles is the fixed latency charged per AXI burst request
	// (row activation, Shell arbitration, and the return trip).
	DRAMRequestCycles uint64

	// OverlapAlpha models the imperfect pipelining between an engine set's
	// DRAM stage and crypto stage: chunk time = max(Td, Tc) + alpha*min(Td,
	// Tc). The Shield keeps a single outstanding burst per engine set and
	// releases data only after the MAC check, so the stages overlap only
	// partially. alpha = 0.35 is fitted so the SDP sweep lands on the
	// paper's Table 2 (298/297/59/20/20% overheads).
	OverlapAlpha float64

	// ChunkIssueCycles is a fixed per-chunk cost in the engine set: burst
	// decode, IV/counter fetch, buffer-line management, and pipeline
	// drain. It sets the overhead floor the SDP sweep saturates at
	// (paper Table 2's 20% plateau).
	ChunkIssueCycles uint64

	// InitCycles is the fixed per-invocation cost of host signalling, DMA
	// setup, and (for shielded runs) Load Key decryption and IV setup. It
	// dominates Figure 5's small-input regime.
	InitCycles uint64

	// ShieldInitCycles is added on top of InitCycles for shielded
	// executions (Load Key unwrap, key schedule, counter reset).
	ShieldInitCycles uint64

	// WritebackBatchChunks is the write-side pipeline window: how many
	// contiguous dirty chunks one write-back window of a flush or an
	// eviction carries (at most 16, the staging window), stored in one
	// batched AXI transaction. Windows of two or more chunks are charged
	// with the overlapped StreamWindowTime accounting; a lone chunk pays
	// the chunked ChunkTime, so a value of 1 disables batching.
	WritebackBatchChunks int

	// RegionLookupHitCycles is the burst-decode cost of resolving an
	// address through a valid lookup-cache entry (a CAM/BRAM probe,
	// pipelined with decode).
	RegionLookupHitCycles uint64

	// RegionLookupMissCycles is the cost of a lookup-cache miss: walking
	// the region table (a binary search over base-sorted zone descriptors
	// held in on-chip RAM) and refilling the entry.
	RegionLookupMissCycles uint64
}

// Default returns the calibrated F1 parameter set.
func Default() Params {
	return Params{
		ClockHz:           250e6,
		DRAMBytesPerCycle: 16,
		DRAMRequestCycles: 20,
		OverlapAlpha:      0.35,
		ChunkIssueCycles:  20,
		InitCycles:        220_000, // ~0.9 ms of host/DMA signalling
		ShieldInitCycles:  40_000,

		WritebackBatchChunks: 16,

		RegionLookupHitCycles:  1,
		RegionLookupMissCycles: 40,
	}
}

// RegionLookupCycles is the simulated burst-decode cost of region
// resolution: hits probe the lookup cache, misses walk the region table.
func (p Params) RegionLookupCycles(hits, misses uint64) uint64 {
	return hits*p.RegionLookupHitCycles + misses*p.RegionLookupMissCycles
}

// DRAMCycles returns the cycle cost of moving n bytes in a single burst,
// including the fixed request latency.
func (p Params) DRAMCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return p.DRAMRequestCycles + uint64(float64(n)/p.DRAMBytesPerCycle+0.999999)
}

// DRAMCyclesShared is the burst cost seen by one of `share` engine sets
// contending for the same channel: each set sees 1/share of the channel
// bandwidth (the request latency is not divided; request queues overlap).
func (p Params) DRAMCyclesShared(n, share int) uint64 {
	if n <= 0 {
		return 0
	}
	if share < 1 {
		share = 1
	}
	return p.DRAMRequestCycles + uint64(float64(n)*float64(share)/p.DRAMBytesPerCycle+0.999999)
}

// ChunkTime combines an engine set's DRAM-stage and crypto-stage times for
// one chunk under the partial-overlap model.
func (p Params) ChunkTime(dram, crypto uint64) uint64 {
	hi, lo := dram, crypto
	if crypto > dram {
		hi, lo = crypto, dram
	}
	return hi + uint64(p.OverlapAlpha*float64(lo))
}

// StreamWindowTime is the steady-state busy time of one window of a
// streamed burst (the paper's §5.2.2 pipelining claim made explicit):
// with windows in flight back to back, the DRAM fetch of window k+1, the
// engine pool's work, and the serial MAC core all overlap, so a window is
// paced by its slowest stage rather than their sum. Contrast ChunkTime,
// where the Shield holds a single outstanding burst and releases data only
// after the MAC check, leaving only partial (OverlapAlpha) overlap.
func (p Params) StreamWindowTime(stages ...uint64) uint64 {
	var hi uint64
	for _, s := range stages {
		if s > hi {
			hi = s
		}
	}
	return hi
}

// StreamFillDrain is the one-time cost of priming and draining the stream
// pipeline: before the first window is resident the stages run
// back-to-back, so a stream is charged sum(stages) once and
// max(stages) for every window thereafter — the "max(dram, crypto) +
// fill/drain" composition.
func (p Params) StreamFillDrain(stages ...uint64) uint64 {
	var hi, sum uint64
	for _, s := range stages {
		if s > hi {
			hi = s
		}
		sum += s
	}
	return sum - hi
}

// Seconds converts cycles to wall-clock seconds at the configured clock.
func (p Params) Seconds(cycles uint64) float64 {
	return float64(cycles) / p.ClockHz
}
