package shield

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/pmacx"
	"shef/internal/parallel"
)

// sealer is the chunk cryptography of one region: key derivation, IVs, and
// the encrypt-then-MAC chunk format. Both the on-FPGA engine set and the
// Data Owner's host library use it, which is what lets the Data Owner
// pre-encrypt inputs into exactly the layout the Shield expects and
// decrypt results coming back (paper §3 step 11).
//
// The sealer splits its crypto in two: engine (aesx.Engine) is the *cycle
// model* of the FPGA engine pool — simulated cost only, identical on
// every host — while block and the per-scratch HMAC/PMAC states are the
// stdlib implementations that actually move bytes (golden_test.go pins
// their output).
type sealer struct {
	cfg      RegionConfig
	regionID uint32
	engine   *aesx.Engine
	block    cipher.Block
	macKey   []byte
	pmac     *pmacx.MAC
}

// sealScratch is one in-flight chunk's working state: the MAC message
// buffer, the CTR counter-block/keystream state, a keyed HMAC-SHA256
// (Reset keeps the key pads, and Sum into the sum array allocates
// nothing), and the PMAC block scratch.
type sealScratch struct {
	msg  []byte
	ctr  aesx.CTRStream
	hmac hash.Hash
	sum  [sha256.Size]byte
	pmac pmacx.Scratch
}

func newSealer(cfg RegionConfig, regionID uint32, dek []byte) (*sealer, error) {
	encKey := kdf.Derive([]byte("shef/region-enc"), dek, []byte(cfg.Name), int(cfg.KeySize))
	macKey := kdf.Derive([]byte("shef/region-mac"), dek, []byte(cfg.Name), 32)
	eng, err := aesx.NewEngine(encKey, cfg.SBox)
	if err != nil {
		return nil, fmt.Errorf("shield: region %q: %w", cfg.Name, err)
	}
	blk, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, fmt.Errorf("shield: region %q: %w", cfg.Name, err)
	}
	s := &sealer{
		cfg:      cfg,
		regionID: regionID,
		engine:   eng,
		block:    blk,
		macKey:   macKey,
	}
	if cfg.MAC == PMAC {
		macBlock, err := aes.NewCipher(macKey[:16])
		if err != nil {
			return nil, err
		}
		s.pmac = pmacx.New(macBlock)
	}
	return s, nil
}

// newScratch builds one chunk-crypto working state.
func (s *sealer) newScratch() *sealScratch {
	sc := &sealScratch{msg: make([]byte, 0, 12+s.cfg.ChunkSize)}
	if s.cfg.MAC == HMAC {
		sc.hmac = hmac.New(sha256.New, s.macKey)
	}
	return sc
}

// hmacTag writes the truncated HMAC-SHA256 tag of msg into tag.
func (sc *sealScratch) hmacTag(msg []byte, tag *[TagSize]byte) {
	sc.hmac.Reset()
	sc.hmac.Write(msg)
	copy(tag[:], sc.hmac.Sum(sc.sum[:0]))
}

// iv derives the CTR IV for a chunk at a write epoch. Counter zero is the
// initial (preload) epoch; regions without freshness stay at zero.
func (s *sealer) iv(chunk int, counter uint32) [aesx.IVSize]byte {
	version := uint32(0)
	if s.cfg.Freshness {
		version = counter
	}
	return aesx.ChunkIV(s.regionID, uint32(chunk), version)
}

// macInputInto assembles the authenticated message into dst[:0]: region ||
// chunk index || counter (if fresh) || ciphertext. Binding the address
// defeats splicing; binding the counter defeats replay (paper
// §5.2.1-5.2.2).
func (s *sealer) macInputInto(dst []byte, chunk int, counter uint32, ct []byte) []byte {
	var hdr [12]byte
	be32(hdr[0:], s.regionID)
	be32(hdr[4:], uint32(chunk))
	if s.cfg.Freshness {
		be32(hdr[8:], counter)
	}
	return append(append(dst, hdr[:]...), ct...)
}

func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// sealChunkWith encrypts plain into ct (same length) and writes the
// TagSize-byte tag into tagOut (typically a slice of the window's staging
// buffer), allocating nothing. The caller owns sc exclusively for the
// duration of the call.
func (s *sealer) sealChunkWith(sc *sealScratch, ct, tagOut []byte, chunk int, counter uint32, plain []byte) {
	sc.ctr.XORKeyStream(s.block, s.iv(chunk, counter), ct, plain)
	msg := s.macInputInto(sc.msg[:0], chunk, counter, ct)
	var tag [TagSize]byte
	if s.cfg.MAC == PMAC {
		tag = s.pmac.SumWith(&sc.pmac, msg)
	} else {
		sc.hmacTag(msg, &tag)
	}
	copy(tagOut, tag[:])
	sc.msg = msg[:0]
}

// openChunkWith verifies ct against the TagSize-byte stored tag
// (typically a slice of the window's staging buffer) and decrypts it into
// dst (same length), allocating nothing. The caller owns sc exclusively
// for the duration of the call.
func (s *sealer) openChunkWith(sc *sealScratch, dst []byte, chunk int, counter uint32, ct, tag []byte) error {
	msg := s.macInputInto(sc.msg[:0], chunk, counter, ct)
	var t [TagSize]byte
	copy(t[:], tag)
	ok := false
	if s.cfg.MAC == PMAC {
		ok = s.pmac.VerifyWith(&sc.pmac, msg, t)
	} else {
		var want [TagSize]byte
		sc.hmacTag(msg, &want)
		ok = subtle.ConstantTimeCompare(want[:], t[:]) == 1
	}
	sc.msg = msg[:0]
	if !ok {
		return &IntegrityError{Region: s.cfg.Name, Chunk: chunk}
	}
	sc.ctr.XORKeyStream(s.block, s.iv(chunk, counter), dst, ct)
	return nil
}

// RegionLayout describes where a region's ciphertext and tags live in
// device DRAM, so the (untrusted) host program can DMA sealed data in and
// out without understanding it.
type RegionLayout struct {
	RegionID uint32
	DataBase uint64 // ciphertext, identity-mapped at the region base
	DataSize uint64
	TagBase  uint64
	TagSize  uint64
}

// Layout reports the DRAM layout of one of the session tenant's regions,
// as its region-table row holds it.
func (s *Shield) Layout(region string) (RegionLayout, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var r *vRegion
	if s.table != nil {
		r = s.table.named(s.cfg.Tenant, region)
	}
	if r == nil {
		return RegionLayout{}, fmt.Errorf("shield: unknown region %q", region)
	}
	return RegionLayout{
		RegionID: r.id,
		DataBase: r.cfg.Base,
		DataSize: r.cfg.Size,
		TagBase:  r.tagOff,
		TagSize:  uint64(r.cfg.Chunks() * TagSize),
	}, nil
}

// SealRegionData encrypts a full region image in the Shield's chunk format
// at epoch zero. The Data Owner runs this in a secure location before
// handing the ciphertext and tags to the untrusted host program for DMA.
func SealRegionData(cfg RegionConfig, regionID uint32, dek, data []byte) (ct, tags []byte, err error) {
	if uint64(len(data)) != cfg.Size {
		return nil, nil, fmt.Errorf("shield: region %q image is %d bytes, want %d", cfg.Name, len(data), cfg.Size)
	}
	s, err := newSealer(cfg, regionID, dek)
	if err != nil {
		return nil, nil, err
	}
	ct = make([]byte, len(data))
	tags = make([]byte, cfg.Chunks()*TagSize)
	cs := cfg.ChunkSize
	s.eachChunk(func(sc *sealScratch, c int) error {
		s.sealChunkWith(sc, ct[c*cs:(c+1)*cs], tags[c*TagSize:(c+1)*TagSize], c, 0, data[c*cs:(c+1)*cs])
		return nil
	})
	return ct, tags, nil
}

// OpenRegionData verifies and decrypts a full region image DMAed out of
// device DRAM. counters supplies the per-chunk write epochs for
// freshness-protected regions (from Shield.CounterSnapshot, relayed over
// an authenticated channel); nil means epoch zero everywhere. A tampered
// image returns the lowest-index failing chunk's *IntegrityError and no
// plaintext.
func OpenRegionData(cfg RegionConfig, regionID uint32, dek, ct, tags []byte, counters []uint32) ([]byte, error) {
	if uint64(len(ct)) != cfg.Size {
		return nil, fmt.Errorf("shield: ciphertext is %d bytes, want %d", len(ct), cfg.Size)
	}
	if len(tags) != cfg.Chunks()*TagSize {
		return nil, errors.New("shield: tag array has wrong size")
	}
	if counters != nil && len(counters) != cfg.Chunks() {
		return nil, errors.New("shield: counter array has wrong size")
	}
	s, err := newSealer(cfg, regionID, dek)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(ct))
	cs := cfg.ChunkSize
	err = s.eachChunk(func(sc *sealScratch, c int) error {
		ctr := uint32(0)
		if counters != nil {
			ctr = counters[c]
		}
		return s.openChunkWith(sc, out[c*cs:(c+1)*cs], c, ctr, ct[c*cs:(c+1)*cs], tags[c*TagSize:(c+1)*TagSize])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachChunk runs f on every chunk of the region, split across Ps by the
// rule a stream batch's split uses: parallel.Workers over the region's
// bytes at splitGrainBytes, so a region under two grains stays on the
// caller. Each worker takes one contiguous chunk range and its own seal
// scratch, and stops at its first failure. Ranges ascend with the worker
// index, so the first failure among the workers is the lowest-index one,
// which eachChunk returns.
func (s *sealer) eachChunk(f func(sc *sealScratch, c int) error) error {
	p := parallel.Workers(int(s.cfg.Size), splitGrainBytes)
	errs := make([]error, p)
	var g parallel.Group
	g.Run(p, s.cfg.Chunks(), chunkRanges(func(w, lo, hi int) {
		sc := s.newScratch()
		for c := lo; c < hi; c++ {
			if err := f(sc, c); err != nil {
				errs[w] = err
				return
			}
		}
	}))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkRanges adapts a worker's range function to parallel.Body.
type chunkRanges func(w, lo, hi int)

// Run calls f(w, lo, hi).
func (f chunkRanges) Run(w, lo, hi int) { f(w, lo, hi) }

// MarkPreloaded tells the Shield that the host has DMAed sealed data into
// a region (at epoch zero): the valid bits are set so reads fetch and
// verify the preloaded ciphertext instead of serving zeros.
func (s *Shield) MarkPreloaded(region string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet(s.cfg.Tenant, region)
	if err != nil {
		return err
	}
	set.markPreloaded()
	return nil
}

// MarkPreloadedRange is MarkPreloaded for a partial DMA: only the chunks
// overlapping bytes [off, off+n) of the region become valid, and any
// resident clean lines for those chunks are dropped (their plaintext
// predates the DMA). Serving paths that stage variable-sized payloads
// through a large scratch region use it so one request's DMA does not
// vouch for — or invalidate — the rest of the region.
func (s *Shield) MarkPreloadedRange(region string, off, n uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet(s.cfg.Tenant, region)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if off+n > set.cfg.Size {
		return fmt.Errorf("shield: preload range [%#x,+%d) outside region %q", off, n, region)
	}
	cs := uint64(set.cfg.ChunkSize)
	set.markPreloadedChunks(int(off/cs), int((off+n+cs-1)/cs))
	return nil
}

// RegionSealer is the Data Owner's persistent chunk-cryptography handle
// for one region: the same key schedule, MAC state, and scratch reused
// across calls, instead of SealRegionData/OpenRegionData's
// rebuild-per-call. A RegionSealer is NOT safe for concurrent use — it
// owns one scratch; callers wanting parallelism hold one per goroutine.
type RegionSealer struct {
	s  *sealer
	sc *sealScratch
}

// NewRegionSealer builds a persistent sealer for a region. cfg and
// regionID must match the Shield-side region (see Layout for the
// region's ID).
func NewRegionSealer(cfg RegionConfig, regionID uint32, dek []byte) (*RegionSealer, error) {
	s, err := newSealer(cfg, regionID, dek)
	if err != nil {
		return nil, err
	}
	return &RegionSealer{s: s, sc: s.newScratch()}, nil
}

// SealRange seals plain — whose length must be a whole number of chunks
// — as chunks [chunk0, chunk0+k) at epoch counter, appending ciphertext
// and tags into ct and tags (chunk i's tag at i*TagSize).
func (rs *RegionSealer) SealRange(chunk0 int, counter uint32, ct, tags, plain []byte) error {
	cs := rs.s.cfg.ChunkSize
	if len(plain)%cs != 0 || len(plain) == 0 {
		return fmt.Errorf("shield: seal range of %d bytes is not whole %d-byte chunks", len(plain), cs)
	}
	k := len(plain) / cs
	if len(ct) < len(plain) || len(tags) < k*TagSize {
		return errors.New("shield: seal range output buffers too short")
	}
	for i := 0; i < k; i++ {
		rs.s.sealChunkWith(rs.sc, ct[i*cs:(i+1)*cs], tags[i*TagSize:(i+1)*TagSize],
			chunk0+i, counter, plain[i*cs:(i+1)*cs])
	}
	return nil
}

// OpenRange verifies and decrypts chunks [chunk0, chunk0+k) at epoch
// counter from ct/tags into dst (k = len(dst)/ChunkSize).
func (rs *RegionSealer) OpenRange(chunk0 int, counter uint32, dst, ct, tags []byte) error {
	cs := rs.s.cfg.ChunkSize
	if len(dst)%cs != 0 || len(dst) == 0 {
		return fmt.Errorf("shield: open range of %d bytes is not whole %d-byte chunks", len(dst), cs)
	}
	k := len(dst) / cs
	if len(ct) < len(dst) || len(tags) < k*TagSize {
		return errors.New("shield: open range input buffers too short")
	}
	for i := 0; i < k; i++ {
		if err := rs.s.openChunkWith(rs.sc, dst[i*cs:(i+1)*cs], chunk0+i, counter,
			ct[i*cs:(i+1)*cs], tags[i*TagSize:(i+1)*TagSize]); err != nil {
			return err
		}
	}
	return nil
}

// CounterSnapshot exports a region's freshness counters, authenticated
// under the session's register MAC key so the untrusted host cannot forge
// them in transit to the Data Owner.
type CounterSnapshot struct {
	Region   string
	Counters []uint32
	Tag      [16]byte
}

// CounterSnapshot captures the current counters of a region.
func (s *Shield) CounterSnapshot(region string) (CounterSnapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet(s.cfg.Tenant, region)
	if err != nil {
		return CounterSnapshot{}, err
	}
	snap := CounterSnapshot{Region: region, Counters: set.counterSnapshot()}
	snap.Tag = s.regs.macSnapshot(region, snap.Counters)
	return snap, nil
}

// VerifyCounterSnapshot checks a snapshot on the Data Owner side, given
// the register file keys derived from the same DEK. Only tests call it:
// the untrusted host cannot forge the counters it relays (paper §5.2.2).
func (rf *RegisterFile) VerifyCounterSnapshot(snap CounterSnapshot) bool {
	return rf.macSnapshot(snap.Region, snap.Counters) == snap.Tag
}

func (rf *RegisterFile) macSnapshot(region string, counters []uint32) [16]byte {
	msg := make([]byte, 0, len(region)+4*len(counters))
	msg = append(msg, region...)
	for _, c := range counters {
		var b [4]byte
		be32(b[:], c)
		msg = append(msg, b[:]...)
	}
	return hmacx.Tag(rf.macKey, append([]byte("counter-snapshot:"), msg...))
}
