package mem

import (
	"fmt"
	"sync"
)

// OCM models the FPGA's on-chip memory pool (Block RAM + UltraRAM).
// UltraScale+ devices provide hundreds of megabits of on-chip RAM, which is
// exactly the resource ShEF leverages to hold Shield buffers and freshness
// counters instead of a Merkle tree (paper §5.2.2: "contemporary FPGAs
// provide much more on-chip memory via new technologies such as UltraRAM").
//
// OCM enforces a capacity budget: allocations beyond the device's pool fail
// the way an over-provisioned bitstream would fail placement. The pool is
// safe for concurrent use: sessions provisioning Shields in parallel (the
// multi-tenant serving path) race only on the budget counter.
type OCM struct {
	mu           sync.Mutex
	capacityBits uint64
	usedBits     uint64
}

// NewOCM creates an on-chip memory pool with the given capacity in bits.
func NewOCM(capacityBits uint64) *OCM {
	return &OCM{capacityBits: capacityBits}
}

// Alloc reserves nBytes of on-chip storage and returns the backing buffer.
// It fails when the device's on-chip pool is exhausted.
func (o *OCM) Alloc(nBytes int) ([]byte, error) {
	if nBytes < 0 {
		return nil, fmt.Errorf("mem: negative OCM allocation %d", nBytes)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	bits := uint64(nBytes) * 8
	if o.usedBits+bits > o.capacityBits {
		return nil, fmt.Errorf("mem: OCM exhausted: need %d bits, %d of %d in use",
			bits, o.usedBits, o.capacityBits)
	}
	o.usedBits += bits
	return make([]byte, nBytes), nil
}

// Free returns capacity to the pool (used when a partial bitstream is
// cleared during reconfiguration).
func (o *OCM) Free(nBytes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	bits := uint64(nBytes) * 8
	if bits > o.usedBits {
		o.usedBits = 0
		return
	}
	o.usedBits -= bits
}

// UsedBits reports the currently allocated on-chip bits.
func (o *OCM) UsedBits() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.usedBits
}
