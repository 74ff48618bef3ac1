package accel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"shef/internal/crypto/hmacx"
	"shef/internal/parallel"
	"shef/internal/shield"
)

// Bitcoin is the Figure 6 register-interface workload (§6.2.4): a miner
// that "operates on small data (a 76 byte block header) and only outputs a
// 4 byte nonce". It uses no device memory at all — only the Shield's
// secured AXI4-Lite register file with one AES and one HMAC engine — and
// because the hash grind dominates, the paper observes almost no overhead.
type Bitcoin struct {
	// Difficulty is the number of leading zero bits the double-SHA-256 of
	// the 80-byte header must have. The paper runs difficulty 24; the
	// default is lower so functional runs stay fast, with the cycle model
	// unchanged per attempted nonce.
	Difficulty int
	// Header is the 76-byte block header prefix (nonce appended).
	Header [76]byte
	// MaxNonce bounds the search (guards tests against unlucky headers).
	MaxNonce uint32

	// nonce is what the last Run read back from the nonce register, and
	// posted whether that Run got that far; Check verifies it.
	nonce  uint32
	posted bool
}

// Register map of the miner.
const (
	btcRegCtrl   = 0  // 1 = start
	btcRegStatus = 1  // 1 = done
	btcRegNonce  = 2  // found nonce
	btcRegHdr0   = 4  // header words 4..13 (76 bytes, little endian)
	btcHdrRegs   = 10 // ceil(76/8)
)

// NewBitcoin builds the workload; params: "difficulty".
func NewBitcoin(params map[string]string) (Workload, error) {
	b := &Bitcoin{Difficulty: 14, MaxNonce: 1 << 28}
	if s, ok := params["difficulty"]; ok {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 || n > 40 {
			return nil, fmt.Errorf("accel: bitcoin difficulty %q invalid", s)
		}
		b.Difficulty = n
	}
	return b, nil
}

func init() { Register("bitcoin", NewBitcoin) }

// Name implements Workload.
func (b *Bitcoin) Name() string { return "bitcoin" }

// ShieldConfig: no memory regions, register interface only.
func (b *Bitcoin) ShieldConfig(variant Variant) shield.Config {
	return shield.Config{Registers: 16}
}

// Inputs seeds the header (regions stay empty; the header travels through
// the register file inside Run).
func (b *Bitcoin) Inputs(rng *rand.Rand) map[string][]byte {
	rng.Read(b.Header[:])
	return map[string][]byte{}
}

// hashCyclesPerNonce is the miner datapath cost per attempted nonce: the
// 80-byte header is two SHA-256 blocks, the second pass one more.
const hashCyclesPerNonce = 3 * hmacx.CyclesPerBlock

// meetsDifficulty reports whether digest has at least d leading zero bits.
func meetsDifficulty(digest [32]byte, d int) bool {
	for i := 0; i < d; i++ {
		if digest[i/8]&(0x80>>(i%8)) != 0 {
			return false
		}
	}
	return true
}

// Run loads the header through the register file, grinds nonces with real
// double-SHA-256, and posts the winning nonce back to a register.
func (b *Bitcoin) Run(ctx *Ctx) error {
	b.posted = false
	// Host → accelerator: header words via the (secured) register file.
	for i := 0; i < btcHdrRegs; i++ {
		var w [8]byte
		copy(w[:], b.Header[i*8:min(76, i*8+8)])
		if _, err := ctx.Regs.WriteReg(btcRegHdr0+i, binary.LittleEndian.Uint64(w[:])); err != nil {
			return err
		}
	}
	if _, err := ctx.Regs.WriteReg(btcRegCtrl, 1); err != nil {
		return err
	}
	nonce, tried, found := searchNonce(&b.Header, b.Difficulty, b.MaxNonce)
	ctx.Compute(tried * hashCyclesPerNonce)
	if !found {
		return fmt.Errorf("accel: no nonce below %d met difficulty %d", b.MaxNonce, b.Difficulty)
	}
	if _, err := ctx.Regs.WriteReg(btcRegNonce, uint64(nonce)); err != nil {
		return err
	}
	if _, err := ctx.Regs.WriteReg(btcRegStatus, 1); err != nil {
		return err
	}
	// Accelerator → host: the result travels back through the register
	// file, and that is the nonce Check verifies.
	posted, _, err := ctx.Regs.ReadReg(btcRegNonce)
	if err != nil {
		return err
	}
	b.nonce, b.posted = uint32(posted), true
	return nil
}

// OutputRegions implements Workload (none: result is a register).
func (b *Bitcoin) OutputRegions() []string { return nil }

// Check hashes the header with the nonce the last Run read back from the
// accelerator's register and fails unless that nonce meets the
// difficulty.
func (b *Bitcoin) Check(inputs, outputs map[string][]byte) error {
	if !b.posted {
		return fmt.Errorf("accel: bitcoin run posted no nonce")
	}
	var full [80]byte
	copy(full[:76], b.Header[:])
	binary.LittleEndian.PutUint32(full[76:], b.nonce)
	if !meetsDifficulty(doubleSHA(full[:]), b.Difficulty) {
		return fmt.Errorf("accel: posted nonce %#x misses difficulty %d", b.nonce, b.Difficulty)
	}
	return nil
}

// The nonce search splits across Ps one window of nonces at a time, and
// each worker of a split gets at least nonceGrain nonces. A window bounds
// the work done past the winner: the split of the window that holds it
// stops once the nonces below the winner are tried. At about 200 ns a
// nonce, a window is about 1.6 ms of hashing, and at two Ps its
// 512-nonce pieces are about 100 µs each.
const (
	nonceWindow = 1 << 13
	nonceGrain  = 1 << 10
)

// searchNonce returns the lowest nonce below maxNonce whose header hash
// has difficulty leading zero bits, and how many nonces the serial search
// from zero tries: up to and including the winner, or all maxNonce of them
// when none wins. Each window's nonces are claimed in ascending pieces
// across Ps; at one P, or when a window is under two grains, the search
// runs on the caller.
func searchNonce(hdr *[76]byte, difficulty int, maxNonce uint32) (nonce uint32, tried uint64, found bool) {
	s := nonceSearch{hdr: hdr, difficulty: difficulty}
	var g parallel.Group
	for base := uint64(0); base < uint64(maxNonce); base += nonceWindow {
		n := min(nonceWindow, uint64(maxNonce)-base)
		s.base = base
		s.best.Store(n)
		g.Run(parallel.Workers(int(n), nonceGrain), int(n), &s)
		if k := s.best.Load(); k < n {
			return uint32(base + k), base + k + 1, true
		}
	}
	return 0, uint64(maxNonce), false
}

// nonceSearch is one window's split of the nonce search: index k of the
// split is nonce base+k.
type nonceSearch struct {
	hdr        *[76]byte
	difficulty int
	base       uint64
	// best is the lowest winning index found so far in the window, or the
	// window's size while none is. A worker skips indexes at or above it:
	// only a lower winner can change the answer.
	best atomic.Uint64
}

// Run tries nonces base+lo .. base+hi-1 in ascending order.
func (s *nonceSearch) Run(_, lo, hi int) {
	var full [80]byte
	copy(full[:76], s.hdr[:])
	for k := uint64(lo); k < uint64(hi) && k < s.best.Load(); k++ {
		binary.LittleEndian.PutUint32(full[76:], uint32(s.base+k))
		if meetsDifficulty(doubleSHA(full[:]), s.difficulty) {
			for {
				cur := s.best.Load()
				if k >= cur || s.best.CompareAndSwap(cur, k) {
					return
				}
			}
		}
	}
}

// doubleSHA is SHA-256(SHA-256(b)), the Bitcoin block-header hash.
func doubleSHA(b []byte) [32]byte {
	first := sha256.Sum256(b)
	return sha256.Sum256(first[:])
}
