// Package aesx models the Shield's configurable AES engines and provides
// the CTR mode and per-chunk IV layout its memory encryption uses.
//
// The paper's AES engine (§5.2.2) contains an internal 256-byte S-box
// lookup table that can be duplicated up to 16 times, trading LUTs for
// latency; the key size (128 or 256 bits) is selected at bitstream
// compilation. Engine describes one such engine instance by its simulated
// cost. The bytes themselves move through crypto/aes: every function here
// that transforms data takes a cipher.Block.
package aesx

import (
	"crypto/aes"
	"fmt"
)

// KeySize selects the AES key length.
type KeySize int

// Supported key sizes.
const (
	AES128 KeySize = 16
	AES256 KeySize = 32
)

// Rounds returns the number of AES rounds for the key size.
func (k KeySize) Rounds() int {
	if k == AES256 {
		return 14
	}
	return 10
}

func (k KeySize) String() string {
	if k == AES256 {
		return "AES-256"
	}
	return "AES-128"
}

// BlockSize is the AES block size in bytes.
const BlockSize = aes.BlockSize

// SBoxParallelism is the number of duplicated S-box lookup tables inside a
// Shield AES engine. The paper's engine duplicates the 256-byte table up to
// 16 times, reducing latency through parallel lookups at the cost of LUTs
// (§5.2.2); the evaluation uses the 4x and 16x points.
type SBoxParallelism int

// The S-box duplication factors evaluated in the paper.
const (
	SBox1x  SBoxParallelism = 1
	SBox2x  SBoxParallelism = 2
	SBox4x  SBoxParallelism = 4
	SBox8x  SBoxParallelism = 8
	SBox16x SBoxParallelism = 16
)

// Valid reports whether p is a supported duplication factor.
func (p SBoxParallelism) Valid() bool {
	switch p {
	case SBox1x, SBox2x, SBox4x, SBox8x, SBox16x:
		return true
	}
	return false
}

func (p SBoxParallelism) String() string { return fmt.Sprintf("%dx", int(p)) }

// Engine models one Shield AES engine instance: the cycle cost implied by
// its key size and S-box parallelism. One engine processes one 16-byte
// block at a time; engine sets instantiate several engines to scale
// throughput (paper §6.2).
type Engine struct {
	size KeySize
	sbox SBoxParallelism
}

// NewEngine builds the model of an engine loaded with key: the key's
// length selects AES-128 or AES-256, sbox the S-box duplication. The key
// material is not retained.
func NewEngine(key []byte, sbox SBoxParallelism) (*Engine, error) {
	if !sbox.Valid() {
		return nil, fmt.Errorf("aesx: unsupported S-box parallelism %d", sbox)
	}
	size := KeySize(len(key))
	if size != AES128 && size != AES256 {
		return nil, fmt.Errorf("aesx: invalid key length %d (want 16 or 32)", len(key))
	}
	return &Engine{size: size, sbox: sbox}, nil
}

// CyclesPerBlock is the simulated cost of one 16-byte block through the
// engine: each round performs 16 S-box substitutions, of which `sbox` can
// proceed in parallel; the linear layers overlap the lookups. AES-128/16x
// therefore costs 10 cycles per block (1.6 B/cycle), AES-128/4x 40 cycles
// (0.4 B/cycle). These rates are calibrated jointly with perf.Params so
// the paper's Table 2 and Figures 5-6 shapes reproduce (DESIGN.md §4).
func (e *Engine) CyclesPerBlock() uint64 {
	perRound := uint64(16 / int(e.sbox))
	return uint64(e.size.Rounds()) * perRound
}

// Cycles returns the engine-cycle cost of processing n bytes of CTR
// keystream (one block per 16 bytes, rounded up).
func (e *Engine) Cycles(n int) uint64 {
	blocks := uint64((n + BlockSize - 1) / BlockSize)
	return blocks * e.CyclesPerBlock()
}

// BytesPerCycle is the engine's steady-state throughput.
func (e *Engine) BytesPerCycle() float64 {
	return float64(BlockSize) / float64(e.CyclesPerBlock())
}
