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
	"sort"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/pmacx"
	"shef/internal/mem"
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

// Layout reports the DRAM layout of one of the default session's regions,
// as its region-table row holds it.
func (s *Shield) Layout(region string) (RegionLayout, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var r *vRegion
	if s.table != nil {
		r = s.table.named("", region)
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

// RegionImage is one region of a Data Owner seal or open: the region's
// configuration, its device-memory layout (see Layout) and its
// plaintext. SealRegions reads Plain; OpenRegions reads Counters and sets
// Plain.
type RegionImage struct {
	Config RegionConfig
	Layout RegionLayout
	Plain  []byte
	// Counters holds the per-chunk write epochs of a freshness-protected
	// region (from Shield.CounterSnapshot, relayed over an authenticated
	// channel); nil means epoch zero everywhere.
	Counters []uint32
}

// SealRegions encrypts full region images in the Shield's chunk format
// at epoch zero and writes each image's ciphertext and tags into dram at
// its layout. The Data Owner seals in a secure location; the writes are
// the untrusted host program's DMA, which moves the bytes without
// understanding them. Every chunk of every image is sealed in one split.
func SealRegions(dek []byte, dram *mem.DRAM, imgs []RegionImage) error {
	sealers, err := newSealers(dek, imgs, true)
	if err != nil {
		return err
	}
	return eachRun(sealers, func(sc *sealScratch, r, c0, c1 int, ct, tags []byte) error {
		im, cs := &imgs[r], imgs[r].Config.ChunkSize
		for c := c0; c < c1; c++ {
			i := c - c0
			sealers[r].sealChunkWith(sc, ct[i*cs:(i+1)*cs], tags[i*TagSize:(i+1)*TagSize], c, 0, im.Plain[c*cs:(c+1)*cs])
		}
		if err := dram.RawWrite(im.Layout.DataBase+uint64(c0*cs), ct); err != nil {
			return err
		}
		return dram.RawWrite(im.Layout.TagBase+uint64(c0*TagSize), tags)
	})
}

// OpenRegions reads full region images back out of dram at their
// layouts (the host's DMA), verifies and decrypts them, and sets each
// image's Plain. Every chunk of every image is opened in one split. A
// tampered image returns the *IntegrityError of the first failing image
// in imgs' order, at its lowest-index failing chunk, and sets no
// plaintext.
func OpenRegions(dek []byte, dram *mem.DRAM, imgs []RegionImage) error {
	sealers, err := newSealers(dek, imgs, false)
	if err != nil {
		return err
	}
	plain := make([][]byte, len(imgs))
	for i := range imgs {
		plain[i] = make([]byte, imgs[i].Config.Size)
	}
	err = eachRun(sealers, func(sc *sealScratch, r, c0, c1 int, ct, tags []byte) error {
		im, cs := &imgs[r], imgs[r].Config.ChunkSize
		if err := dram.RawReadInto(im.Layout.DataBase+uint64(c0*cs), ct); err != nil {
			return err
		}
		if err := dram.RawReadInto(im.Layout.TagBase+uint64(c0*TagSize), tags); err != nil {
			return err
		}
		for c := c0; c < c1; c++ {
			i, ctr := c-c0, uint32(0)
			if im.Counters != nil {
				ctr = im.Counters[c]
			}
			if err := sealers[r].openChunkWith(sc, plain[r][c*cs:(c+1)*cs], c, ctr, ct[i*cs:(i+1)*cs], tags[i*TagSize:(i+1)*TagSize]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range imgs {
		imgs[i].Plain = plain[i]
	}
	return nil
}

// newSealers checks each image's layout and counters against its
// configuration, and its plaintext's size for a seal, and builds the
// sealer of its region.
func newSealers(dek []byte, imgs []RegionImage, seal bool) ([]*sealer, error) {
	sealers := make([]*sealer, len(imgs))
	for i, im := range imgs {
		cfg := im.Config
		switch {
		case seal && uint64(len(im.Plain)) != cfg.Size:
			return nil, fmt.Errorf("shield: region %q image is %d bytes, want %d", cfg.Name, len(im.Plain), cfg.Size)
		case im.Layout.DataSize != cfg.Size || im.Layout.TagSize != uint64(cfg.Chunks()*TagSize):
			return nil, fmt.Errorf("shield: region %q layout does not match its configuration", cfg.Name)
		case im.Counters != nil && len(im.Counters) != cfg.Chunks():
			return nil, fmt.Errorf("shield: region %q counter array has wrong size", cfg.Name)
		}
		s, err := newSealer(cfg, im.Layout.RegionID, dek)
		if err != nil {
			return nil, err
		}
		sealers[i] = s
	}
	return sealers, nil
}

// eachRun runs f(sc, r, c0, c1, ct, tags) on every chunk of every region
// r, as runs [c0, c1) of one region's chunks, in one split over the
// regions' chunks laid end to end in sealers' order. ct and tags are the
// worker's staging for the run, (c1-c0) chunks and tags long. A run
// holds at most splitGrainBytes of ciphertext, or one chunk where a
// chunk is larger, whatever the size of the worker's piece: at one P the
// piece is the whole range.
//
// The split follows the rule a stream batch's split uses, applied to the
// regions' total size: parallel.Workers over their bytes at
// splitGrainBytes, so regions under two grains in all stay on the
// caller. Each worker builds a seal scratch for each region it meets,
// once for all its pieces, and a piece stops at its first failing run,
// which the worker records. A worker's runs ascend, and runs do not
// overlap, so the failed run that starts lowest holds the lowest
// failure; a worker skips the rest of its pieces, and eachRun returns
// the error of the lowest failed run among the workers: the first
// failing region's lowest failing chunk.
func eachRun(sealers []*sealer, f func(sc *sealScratch, r, c0, c1 int, ct, tags []byte) error) error {
	// first[r] is region r's first chunk in the split's index space.
	first := make([]int, len(sealers)+1)
	size := 0
	for r, s := range sealers {
		first[r+1] = first[r] + s.cfg.Chunks()
		size += int(s.cfg.Size)
	}
	p := parallel.Workers(size, splitGrainBytes)
	type worker struct {
		sc       []*sealScratch // by region, built on first use
		ct, tags []byte         // one run's staging
		run      int            // the first chunk of the failed run
		err      error
	}
	workers := make([]worker, p)
	var g parallel.Group
	g.Run(p, first[len(sealers)], chunkPieces(func(w, lo, hi int) {
		wk := &workers[w]
		if wk.err != nil {
			return
		}
		if wk.sc == nil {
			wk.sc = make([]*sealScratch, len(sealers))
		}
		r := sort.SearchInts(first[1:], lo+1) // the region holding chunk lo
		for lo < hi {
			for lo >= first[r+1] {
				r++
			}
			sc := wk.sc[r]
			if sc == nil {
				sc = sealers[r].newScratch()
				wk.sc[r] = sc
			}
			cs := sealers[r].cfg.ChunkSize
			n := min(max(1, splitGrainBytes/cs), hi-lo, first[r+1]-lo)
			if len(wk.ct) < n*cs || len(wk.tags) < n*TagSize {
				wk.ct = make([]byte, max(len(wk.ct), n*cs))
				wk.tags = make([]byte, max(len(wk.tags), n*TagSize))
			}
			if err := f(sc, r, lo-first[r], lo-first[r]+n, wk.ct[:n*cs], wk.tags[:n*TagSize]); err != nil {
				wk.run, wk.err = lo, err
				return
			}
			lo += n
		}
	}))
	var err error
	lowest := 0
	for _, wk := range workers {
		if wk.err != nil && (err == nil || wk.run < lowest) {
			err, lowest = wk.err, wk.run
		}
	}
	return err
}

// chunkPieces adapts a worker's piece function to parallel.Body.
type chunkPieces func(w, lo, hi int)

// Run calls f(w, lo, hi).
func (f chunkPieces) Run(w, lo, hi int) { f(w, lo, hi) }

// MarkPreloaded tells the Shield that the host has DMAed sealed data into
// a region (at epoch zero): the valid bits are set so reads fetch and
// verify the preloaded ciphertext instead of serving zeros.
func (s *Shield) MarkPreloaded(region string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet("", region)
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
	set, err := s.namedSet("", region)
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
// across calls, instead of SealRegions/OpenRegions'
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
	set, err := s.namedSet("", region)
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
