// Package shield implements the ShEF Shield (paper §5): a configurable
// security wrapper that interposes on the AXI interfaces between an
// accelerator and the untrusted Shell, providing authenticated encryption
// for device memory and the host register path, optional replay protection
// via on-chip freshness counters, and on-chip buffering.
//
// The Shield is the paper's primary contribution. Its defining property is
// customisability: each memory region gets its own engine set whose chunk
// size, engine count, S-box parallelism, key size, MAC algorithm, buffer
// capacity, and freshness protection are chosen by the IP Vendor to fit
// the accelerator's access pattern and threat model (paper §5.2).
package shield

import (
	"errors"
	"fmt"
	"sort"

	"shef/internal/crypto/aesx"
)

// MACKind selects the authentication engine of an engine set.
type MACKind int

// Supported MAC engines (paper Table 1 lists both).
const (
	// HMAC is the default SHA-256 HMAC engine. It is serial: one chunk's
	// MAC cannot be split across engines, so MAC throughput does not scale
	// within a stream (paper §6.2.3).
	HMAC MACKind = iota
	// PMAC is the parallelisable AES-based MAC. Its block computations
	// run on the engine set's AES engine pool, so adding engines raises
	// both encryption and authentication bandwidth.
	PMAC
)

func (m MACKind) String() string {
	if m == PMAC {
		return "PMAC"
	}
	return "HMAC"
}

// TagSize is the per-chunk MAC tag stored in DRAM (paper §5.2.2).
const TagSize = 16

// CounterSize is the per-chunk freshness counter width in bytes.
const CounterSize = 4

// RegionConfig describes one memory region and the engine set that secures
// it. Regions are expressed in the accelerator's (plaintext) address space.
type RegionConfig struct {
	// Name labels the region in reports ("weights", "featuremaps", ...).
	Name string
	// Base and Size delimit the region. Base must be ChunkSize-aligned and
	// Size a multiple of ChunkSize.
	Base uint64
	Size uint64
	// ChunkSize is Cmem: the authenticated-encryption granularity. Larger
	// chunks amortise tag traffic and MAC finalisation; smaller chunks
	// avoid transferring unneeded bytes on random access (paper §5.2.1).
	ChunkSize int
	// AESEngines is the engine-pool size of this set. The pool serves CTR
	// keystream generation, and PMAC block computations when MAC == PMAC.
	AESEngines int
	// SBox is the per-engine S-box duplication factor.
	SBox aesx.SBoxParallelism
	// KeySize selects AES-128 or AES-256.
	KeySize aesx.KeySize
	// MAC selects the authentication engine.
	MAC MACKind
	// BufferBytes is the on-chip plaintext buffer (cache) capacity. Zero
	// selects a single-chunk staging buffer.
	BufferBytes int
	// Freshness enables on-chip counters that defeat replay attacks. It
	// costs CounterSize bytes of on-chip RAM per chunk and one counter
	// fold per MAC (paper §5.2.2, "Advanced integrity verification").
	Freshness bool
	// SeqPrefetch arms the adaptive sequential prefetcher: after
	// prefetchMinMisses consecutive ascending chunk misses,
	// the engine set fetches ahead through pipelined stream windows, so
	// chunk-at-a-time sequential access patterns get the streaming path's
	// overlapped accounting without the accelerator calling ReadStream.
	// IP Vendors enable it for regions with sequential phases; leave it
	// off for genuinely random access, where fetched-ahead lines only
	// pollute the buffer.
	SeqPrefetch bool
	// Channel is the off-chip interface this region's traffic uses (the
	// F1 device has four DDR4 channels; SDP's storage and TLS interfaces
	// are distinct ports). Regions on different channels do not contend
	// for bandwidth in the performance model.
	Channel int
}

// Chunks returns the number of chunks in the region.
func (r RegionConfig) Chunks() int { return int(r.Size) / r.ChunkSize }

// bufferLines returns the cache capacity in lines (at least one).
func (r RegionConfig) bufferLines() int {
	n := r.BufferBytes / r.ChunkSize
	if n < 1 {
		n = 1
	}
	return n
}

// Config is a complete Shield configuration.
type Config struct {
	// Regions lists the memory partitions. The burst decoder routes each
	// accelerator address to the engine set of its region; accesses
	// outside every region are rejected (isolation).
	Regions []RegionConfig
	// Registers is the size of the secured register file (64-bit words).
	Registers int
	// EncryptRegAddrs hides which register the host touches by accepting
	// all traffic at a common address with the index sealed inside the
	// payload (paper §5.1).
	EncryptRegAddrs bool
	// ArenaEnd extends the address space available to runtime-created
	// protection zones past the last static region: zones must fit below
	// the tag shadow, which starts at the page-aligned maximum of the
	// static regions' end and ArenaEnd. Zero leaves only the static
	// footprint (no headroom for dynamic zones beyond it).
	ArenaEnd uint64
}

// Validate checks structural soundness: aligned, non-overlapping regions,
// sane engine parameters.
func (c Config) Validate() error {
	if c.Registers < 0 {
		return errors.New("shield: negative register count")
	}
	regs := append([]RegionConfig(nil), c.Regions...)
	sort.Slice(regs, func(i, j int) bool { return regs[i].Base < regs[j].Base })
	for i, r := range regs {
		if err := r.validate(); err != nil {
			return err
		}
		if i > 0 && regs[i-1].Base+regs[i-1].Size > r.Base {
			return fmt.Errorf("shield: regions %q and %q overlap", regs[i-1].Name, r.Name)
		}
	}
	return nil
}

// validate checks one region's structural soundness (alignment and engine
// parameters); overlap is the container's concern (Config.Validate for
// the static set, RegionTable for runtime-created zones).
func (r RegionConfig) validate() error {
	if r.ChunkSize <= 0 || r.ChunkSize%aesx.BlockSize != 0 {
		return fmt.Errorf("shield: region %q: chunk size %d must be a positive multiple of %d",
			r.Name, r.ChunkSize, aesx.BlockSize)
	}
	if r.Size == 0 || r.Size%uint64(r.ChunkSize) != 0 {
		return fmt.Errorf("shield: region %q: size %d not a multiple of chunk size %d",
			r.Name, r.Size, r.ChunkSize)
	}
	if r.Base%uint64(r.ChunkSize) != 0 {
		return fmt.Errorf("shield: region %q: base %#x not chunk-aligned", r.Name, r.Base)
	}
	if r.AESEngines < 1 {
		return fmt.Errorf("shield: region %q: needs at least one AES engine", r.Name)
	}
	if !r.SBox.Valid() {
		return fmt.Errorf("shield: region %q: invalid S-box parallelism %d", r.Name, r.SBox)
	}
	if r.KeySize != aesx.AES128 && r.KeySize != aesx.AES256 {
		return fmt.Errorf("shield: region %q: invalid key size %d", r.Name, r.KeySize)
	}
	if r.MAC != HMAC && r.MAC != PMAC {
		return fmt.Errorf("shield: region %q: invalid MAC kind %d", r.Name, r.MAC)
	}
	return nil
}
