// Package mem provides the simulated memory substrate: off-chip device
// DRAM (untrusted in ShEF's threat model) and on-chip BRAM/URAM (trusted,
// capacity-accounted).
//
// The DRAM stores real bytes — after the Shield is interposed those bytes
// are ciphertext plus MAC tags — and additionally exposes the attack
// surface the paper's adversary has: arbitrary reads (snooping), writes
// (spoofing/splicing), and snapshot/restore (replay). The Shield's security
// tests drive those hooks directly.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"shef/internal/perf"
)

// DRAM is a byte-addressable off-chip memory with a bandwidth/latency cycle
// model. Storage is allocated page-wise on first touch so a 64 GB device
// memory can be declared without committing 64 GB of host RAM.
//
// Locking is striped by page, the software analogue of the device's
// channel/bank parallelism: engine sets whose regions live on different
// channels touch disjoint pages and therefore disjoint stripes, so they
// proceed without lock contention — matching Report.MemoryCycles, where
// regions on different channels do not contend for bandwidth. Traffic
// statistics are atomics for the same reason.
type DRAM struct {
	size    uint64
	params  perf.Params
	stripes [dramStripes]dramStripe

	// Statistics, for benchmarks and the DESIGN.md ablations.
	readBytes  atomic.Uint64
	writeBytes atomic.Uint64
	reads      atomic.Uint64
	writes     atomic.Uint64
}

type dramStripe struct {
	mu    sync.Mutex
	pages map[uint64][]byte
}

const (
	pageSize = 1 << 16
	// dramStripes is the lock-striping factor. 64 stripes over 64 KB pages
	// keeps adjacent regions on separate locks while the array of mutexes
	// stays trivially small.
	dramStripes = 64
)

// NewDRAM creates a DRAM of the given byte size with the cycle parameters.
func NewDRAM(size uint64, params perf.Params) *DRAM {
	d := &DRAM{size: size, params: params}
	for i := range d.stripes {
		d.stripes[i].pages = make(map[uint64][]byte)
	}
	return d
}

// ReadBurst reads len(buf) bytes at addr and returns the simulated cycle
// cost of the burst.
func (d *DRAM) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	if err := d.check(addr, len(buf)); err != nil {
		return 0, err
	}
	d.copyOut(addr, buf)
	d.reads.Add(1)
	d.readBytes.Add(uint64(len(buf)))
	return d.params.DRAMCycles(len(buf)), nil
}

// WriteBurst writes data at addr and returns the simulated cycle cost.
func (d *DRAM) WriteBurst(addr uint64, data []byte) (uint64, error) {
	if err := d.check(addr, len(data)); err != nil {
		return 0, err
	}
	d.copyIn(addr, data)
	d.writes.Add(1)
	d.writeBytes.Add(uint64(len(data)))
	return d.params.DRAMCycles(len(data)), nil
}

// RawRead performs an adversarial read: no cycle accounting, no statistics.
// This models physical bus probing or a malicious Shell (paper §2.5).
func (d *DRAM) RawRead(addr uint64, n int) ([]byte, error) {
	if err := d.check(addr, n); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	d.copyOut(addr, buf)
	return buf, nil
}

// RawReadInto is RawRead into a caller-owned buffer — the host DMA path
// of a serving loop, where a fresh allocation per transfer would be the
// loop's only garbage.
func (d *DRAM) RawReadInto(addr uint64, buf []byte) error {
	if err := d.check(addr, len(buf)); err != nil {
		return err
	}
	d.copyOut(addr, buf)
	return nil
}

// RawWrite performs an adversarial write (spoofing attack); writing back
// bytes an earlier RawRead took is the replay attack that freshness
// counters must detect (paper §5.2.2).
func (d *DRAM) RawWrite(addr uint64, data []byte) error {
	if err := d.check(addr, len(data)); err != nil {
		return err
	}
	d.copyIn(addr, data)
	return nil
}

// Stats reports cumulative traffic counters.
func (d *DRAM) Stats() (reads, writes, readBytes, writeBytes uint64) {
	return d.reads.Load(), d.writes.Load(), d.readBytes.Load(), d.writeBytes.Load()
}

// ResetStats zeroes the traffic counters.
func (d *DRAM) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.readBytes.Store(0)
	d.writeBytes.Store(0)
}

func (d *DRAM) check(addr uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: negative length %d", n)
	}
	if addr+uint64(n) > d.size || addr+uint64(n) < addr {
		return fmt.Errorf("mem: access [%#x, %#x) outside DRAM of size %#x", addr, addr+uint64(n), d.size)
	}
	return nil
}

func (d *DRAM) stripe(pidx uint64) *dramStripe {
	return &d.stripes[pidx%dramStripes]
}

// page returns the backing storage for a page, allocating on first touch.
// Callers hold the page's stripe lock.
func (s *dramStripe) page(idx uint64) []byte {
	p, ok := s.pages[idx]
	if !ok {
		p = make([]byte, pageSize)
		s.pages[idx] = p
	}
	return p
}

func (d *DRAM) copyOut(addr uint64, buf []byte) {
	for off := 0; off < len(buf); {
		pidx := (addr + uint64(off)) / pageSize
		poff := (addr + uint64(off)) % pageSize
		st := d.stripe(pidx)
		st.mu.Lock()
		n := copy(buf[off:], st.page(pidx)[poff:])
		st.mu.Unlock()
		off += n
	}
}

func (d *DRAM) copyIn(addr uint64, data []byte) {
	for off := 0; off < len(data); {
		pidx := (addr + uint64(off)) / pageSize
		poff := (addr + uint64(off)) % pageSize
		st := d.stripe(pidx)
		st.mu.Lock()
		n := copy(st.page(pidx)[poff:], data[off:])
		st.mu.Unlock()
		off += n
	}
}
