package shield

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
	"shef/internal/crypto/kdf"
)

// regOpCycles is the simulated cost of one secured AXI4-Lite access: an
// AES block for the keystream, a short MAC, and the Lite handshake.
const regOpCycles = 120

// CommonRegAddr is the index carried on the wire when EncryptRegAddrs is
// enabled: every access targets this one address and the true index rides
// encrypted inside the payload (paper §5.1).
const CommonRegAddr = 0xFFFFFFFF

// SealedReg is one encrypted register message on the host <-> Shield wire.
// The host program moves these blobs without being able to read or forge
// them.
type SealedReg struct {
	// Index is the register number, or CommonRegAddr under address
	// encryption.
	Index uint32
	// Seq is the anti-replay sequence number; the Shield accepts only
	// strictly increasing values per direction.
	Seq uint64
	// Payload is AES-CTR ciphertext: 8 bytes of value, plus 4 bytes of
	// true index under address encryption.
	Payload []byte
	// Tag authenticates direction, index, seq, and payload.
	Tag [hmacx.TagSize]byte
}

// RegisterFile is the Shield's secured AXI4-Lite interface: a plaintext
// register file on the accelerator side, sealed messages on the host side.
//
// The server-side entry points (ReadReg/WriteReg for the accelerator,
// HostWrite/HostRead for the sealed host path) are safe for concurrent
// use; the hardware analogue is the AXI4-Lite interconnect serialising
// single-beat accesses. The client-side sealing helpers (SealWrite,
// SealReadRequest, OpenResponse) touch only immutable key material and
// need no locking — each host session owns its own sequence counter.
type RegisterFile struct {
	cfg    Config
	macKey []byte
	cipher cipher.Block

	mu      sync.Mutex
	regs    []uint64
	lastSeq map[byte]uint64 // per-direction high-water mark
	cycles  uint64
}

// Message directions (domain separation for MACs and IVs).
const (
	dirHostWrite byte = 1
	dirHostRead  byte = 2
	dirResponse  byte = 3
)

func newRegisterFile(cfg Config, dek []byte) (*RegisterFile, error) {
	encKey := kdf.Derive([]byte("shef/reg-enc"), dek, nil, 32)
	macKey := kdf.Derive([]byte("shef/reg-mac"), dek, nil, 32)
	cipher, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	n := cfg.Registers
	if n == 0 {
		n = 16
	}
	return &RegisterFile{
		cfg:     cfg,
		regs:    make([]uint64, n),
		macKey:  macKey,
		cipher:  cipher,
		lastSeq: make(map[byte]uint64),
	}, nil
}

// --- Accelerator side (plaintext, inside the perimeter) ---

// ReadReg implements axi.RegisterPort for the accelerator.
func (rf *RegisterFile) ReadReg(index int) (uint64, uint64, error) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if index < 0 || index >= len(rf.regs) {
		return 0, 0, fmt.Errorf("shield: register %d out of range", index)
	}
	return rf.regs[index], 1, nil
}

// WriteReg implements axi.RegisterPort for the accelerator.
func (rf *RegisterFile) WriteReg(index int, v uint64) (uint64, error) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if index < 0 || index >= len(rf.regs) {
		return 0, fmt.Errorf("shield: register %d out of range", index)
	}
	rf.regs[index] = v
	return 1, nil
}

// cyclesSnapshot reads the accumulated AXI4-Lite cycle count.
func (rf *RegisterFile) cyclesSnapshot() uint64 {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.cycles
}

// resetCycles zeroes the AXI4-Lite cycle count.
func (rf *RegisterFile) resetCycles() {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.cycles = 0
}

// --- Host side (sealed) ---

func (rf *RegisterFile) iv(dir byte, seq uint64) [aesx.IVSize]byte {
	var iv [aesx.IVSize]byte
	// Byte 0 is reserved (zero) to keep register IVs disjoint from chunk
	// IVs, whose first bytes carry a nonzero region ID.
	iv[1] = dir
	binary.BigEndian.PutUint64(iv[2:10], seq)
	return iv
}

func (rf *RegisterFile) macMsg(dir byte, index uint32, seq uint64, payload []byte) []byte {
	msg := make([]byte, 13+len(payload))
	msg[0] = dir
	binary.BigEndian.PutUint32(msg[1:5], index)
	binary.BigEndian.PutUint64(msg[5:13], seq)
	copy(msg[13:], payload)
	return msg
}

// seal builds a sealed message for the given direction. The host-side
// SealWrite and SealReadRequest and the Shield-side HostRead all call it,
// so the sealing rules live in one place.
func (rf *RegisterFile) seal(dir byte, index uint32, seq uint64, plain []byte) SealedReg {
	wireIndex := index
	payload := plain
	if rf.cfg.EncryptRegAddrs && dir != dirResponse {
		wireIndex = CommonRegAddr
		payload = make([]byte, 4+len(plain))
		binary.BigEndian.PutUint32(payload[:4], index)
		copy(payload[4:], plain)
	}
	ct := make([]byte, len(payload))
	aesx.CTR(rf.cipher, rf.iv(dir, seq), ct, payload)
	return SealedReg{
		Index:   wireIndex,
		Seq:     seq,
		Payload: ct,
		Tag:     hmacx.Tag(rf.macKey, rf.macMsg(dir, wireIndex, seq, ct)),
	}
}

// open verifies and decrypts a sealed message, enforcing seq monotonicity.
// Callers hold rf.mu (the sequence high-water marks are shared state).
func (rf *RegisterFile) open(dir byte, m SealedReg) (index uint32, plain []byte, err error) {
	if !hmacx.Verify(rf.macKey, rf.macMsg(dir, m.Index, m.Seq, m.Payload), m.Tag) {
		return 0, nil, errors.New("shield: register message authentication failed")
	}
	if m.Seq <= rf.lastSeq[dir] {
		return 0, nil, fmt.Errorf("shield: register message replayed (seq %d <= %d)", m.Seq, rf.lastSeq[dir])
	}
	rf.lastSeq[dir] = m.Seq
	plain = make([]byte, len(m.Payload))
	aesx.CTR(rf.cipher, rf.iv(dir, m.Seq), plain, m.Payload)
	index = m.Index
	if rf.cfg.EncryptRegAddrs {
		if len(plain) < 4 {
			return 0, nil, errors.New("shield: sealed payload too short for encrypted address")
		}
		index = binary.BigEndian.Uint32(plain[:4])
		plain = plain[4:]
	}
	if int(index) >= len(rf.regs) {
		return 0, nil, fmt.Errorf("shield: register %d out of range", index)
	}
	return index, plain, nil
}

// HostWrite applies a sealed host write to the register file.
func (rf *RegisterFile) HostWrite(m SealedReg) error {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.cycles += regOpCycles
	index, plain, err := rf.open(dirHostWrite, m)
	if err != nil {
		return err
	}
	if len(plain) != 8 {
		return fmt.Errorf("shield: register write payload is %d bytes, want 8", len(plain))
	}
	rf.regs[index] = binary.BigEndian.Uint64(plain)
	return nil
}

// HostRead serves a sealed read request: it authenticates the request and
// returns the register value sealed for the response direction, tagged
// with the request's sequence number so responses cannot be swapped.
func (rf *RegisterFile) HostRead(m SealedReg) (SealedReg, error) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.cycles += regOpCycles
	index, plain, err := rf.open(dirHostRead, m)
	if err != nil {
		return SealedReg{}, err
	}
	if len(plain) != 0 {
		return SealedReg{}, errors.New("shield: register read request carries a payload")
	}
	var value [8]byte
	binary.BigEndian.PutUint64(value[:], rf.regs[index])
	return rf.seal(dirResponse, index, m.Seq, value[:]), nil
}

// SealWrite and SealReadRequest are the client-side sealing entry points
// used by hostapp; they do not touch the register file state.
func (rf *RegisterFile) SealWrite(index uint32, value uint64, seq uint64) SealedReg {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], value)
	return rf.seal(dirHostWrite, index, seq, v[:])
}

// SealReadRequest builds a sealed read request. With HostRead and
// OpenResponse it is the host's secured register read, which only tests
// drive: a tampered, replayed or swapped response is rejected (paper §5.1).
func (rf *RegisterFile) SealReadRequest(index uint32, seq uint64) SealedReg {
	return rf.seal(dirHostRead, index, seq, nil)
}

// OpenResponse verifies and decodes a sealed read response on the client.
func (rf *RegisterFile) OpenResponse(m SealedReg, wantSeq uint64) (uint64, error) {
	if m.Seq != wantSeq {
		return 0, fmt.Errorf("shield: response seq %d does not match request %d", m.Seq, wantSeq)
	}
	if !hmacx.Verify(rf.macKey, rf.macMsg(dirResponse, m.Index, m.Seq, m.Payload), m.Tag) {
		return 0, errors.New("shield: register response authentication failed")
	}
	plain := make([]byte, len(m.Payload))
	aesx.CTR(rf.cipher, rf.iv(dirResponse, m.Seq), plain, m.Payload)
	if len(plain) != 8 {
		return 0, errors.New("shield: register response payload malformed")
	}
	return binary.BigEndian.Uint64(plain), nil
}
