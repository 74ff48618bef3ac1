package accel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"shef/internal/crypto/hmacx"
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
	var full [80]byte
	copy(full[:76], b.Header[:])
	tried := uint64(0)
	found := false
	var nonce uint32
	for n := uint32(0); n < b.MaxNonce; n++ {
		binary.LittleEndian.PutUint32(full[76:], n)
		tried++
		if meetsDifficulty(doubleSHA(full[:]), b.Difficulty) {
			nonce, found = n, true
			break
		}
	}
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
	return nil
}

// OutputRegions implements Workload (none: result is a register).
func (b *Bitcoin) OutputRegions() []string { return nil }

// Check re-grinds the header from nonce 0 and passes once some nonce
// within MaxNonce meets the difficulty. It never reads the accelerator's
// nonce: that lives in the register file, which the harness does not
// export (the shield register tests cover the register path), so Check
// asserts only that the mining predicate admits a nonce for this header.
func (b *Bitcoin) Check(inputs, outputs map[string][]byte) error {
	var full [80]byte
	copy(full[:76], b.Header[:])
	for n := uint32(0); n < b.MaxNonce; n++ {
		binary.LittleEndian.PutUint32(full[76:], n)
		if meetsDifficulty(doubleSHA(full[:]), b.Difficulty) {
			return nil
		}
	}
	return fmt.Errorf("accel: header admits no nonce within bound")
}

// doubleSHA is SHA-256(SHA-256(b)), the Bitcoin block-header hash.
func doubleSHA(b []byte) [32]byte {
	first := sha256.Sum256(b)
	return sha256.Sum256(first[:])
}
