package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/rand"

	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

// Stream geometry shared by the stream workload and the reference ops:
// 512-byte chunks, a 12-byte MAC header (region, chunk, counter) per
// chunk, and 16-chunk pipeline windows.
const (
	chunkBytes  = 512
	macHeader   = 12
	windowBytes = 16 * chunkBytes
)

// refKinds are the reference ops, in the order the traced stream run
// interleaves them after each op. floor.* use only the standard library
// (the speed of light for the same bytes on this host); sealer.* and
// mem.* time one layer of the Shield alone on one goroutine. sealer.open
// opens what sealer.seal just produced, so seal comes first.
var refKinds = []string{
	"floor.ctr", "floor.hmac", "floor.memcpy",
	"sealer.seal", "sealer.open",
	"mem.read_burst", "mem.write_burst",
}

// refs holds the state of the reference ops over one op-sized image.
type refs struct {
	opBytes int
	block   cipher.Block
	mac     hash.Hash
	tag     [sha256.Size]byte
	src     []byte
	dst     []byte
	rs      *shield.RegionSealer
	ct      []byte
	tags    []byte
	dram    *mem.DRAM
}

// newRefs builds the reference state for a region of the stream
// geometry. The sealer uses the region's own configuration and key.
func newRefs(rc shield.RegionConfig, regionID uint32, dek []byte, opBytes int, seed int64) (*refs, error) {
	rs, err := shield.NewRegionSealer(rc, regionID, dek)
	if err != nil {
		return nil, err
	}
	key := make([]byte, 16)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(key)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	r := &refs{
		opBytes: opBytes,
		block:   block,
		mac:     hmac.New(sha256.New, key),
		src:     make([]byte, opBytes),
		dst:     make([]byte, opBytes),
		rs:      rs,
		ct:      make([]byte, opBytes),
		tags:    make([]byte, opBytes/chunkBytes*shield.TagSize),
		dram:    mem.NewDRAM(uint64(2*opBytes), perf.Default()),
	}
	rng.Read(r.src)
	return r, nil
}

// run times one reference op of the given kind at chunk index chunk0.
func (r *refs) run(t *tracer, kind string, chunk0 int) error {
	var err error
	t.begin("ref." + kind)
	switch kind {
	case "floor.ctr":
		var iv [aes.BlockSize]byte
		for c := 0; c < r.opBytes/chunkBytes; c++ {
			binary.BigEndian.PutUint32(iv[4:], uint32(chunk0+c))
			off := c * chunkBytes
			cipher.NewCTR(r.block, iv[:]).XORKeyStream(r.dst[off:off+chunkBytes], r.src[off:off+chunkBytes])
		}
	case "floor.hmac":
		var hdr [macHeader]byte
		for c := 0; c < r.opBytes/chunkBytes; c++ {
			binary.BigEndian.PutUint32(hdr[4:], uint32(chunk0+c))
			r.mac.Reset()
			r.mac.Write(hdr[:])
			r.mac.Write(r.src[c*chunkBytes : (c+1)*chunkBytes])
			r.mac.Sum(r.tag[:0])
		}
	case "floor.memcpy":
		for off := 0; off < r.opBytes; off += windowBytes {
			copy(r.dst[off:off+windowBytes], r.src[off:off+windowBytes])
		}
	case "sealer.seal":
		err = r.rs.SealRange(chunk0, 0, r.ct, r.tags, r.src)
	case "sealer.open":
		// Opens what the last seal produced, so run sealer.seal first.
		err = r.rs.OpenRange(chunk0, 0, r.dst, r.ct, r.tags)
	case "mem.read_burst", "mem.write_burst":
		tagWin := windowBytes / chunkBytes * shield.TagSize
		tagBase := uint64(r.opBytes)
		for off, w := 0, 0; off < r.opBytes && err == nil; off, w = off+windowBytes, w+1 {
			data, tags := r.dst[off:off+windowBytes], r.tags[w*tagWin:(w+1)*tagWin]
			if kind == "mem.read_burst" {
				if _, err = r.dram.ReadBurst(uint64(off), data); err == nil {
					_, err = r.dram.ReadBurst(tagBase+uint64(w*tagWin), tags)
				}
			} else if _, err = r.dram.WriteBurst(uint64(off), data); err == nil {
				_, err = r.dram.WriteBurst(tagBase+uint64(w*tagWin), tags)
			}
		}
	}
	t.end()
	return err
}

// all runs one reference op of every kind.
func (r *refs) all(t *tracer, chunk0 int) error {
	for _, k := range refKinds {
		if err := r.run(t, k, chunk0); err != nil {
			return err
		}
	}
	return nil
}

// refMetrics reports each reference kind as milliseconds per MiB, from
// the median reference op.
func refMetrics(r *run, ts *traceSet, opBytes int) {
	perMiB := float64(1<<20) / float64(opBytes)
	for _, k := range refKinds {
		r.set(k+".ms_per_MiB", "ms", ts.layer("ref."+k).durs.quantile(0.5)*perMiB)
	}
}

// refBlock runs n rounds of every reference op on their own, for traced
// workloads whose ops do not interleave them.
func refBlock(t *tracer, n int, seed int64) error {
	rc := streamRegion(8 << 20)
	dek := make([]byte, 32)
	rand.New(rand.NewSource(seed)).Read(dek)
	opBytes := 1 << 20
	rf, err := newRefs(rc, 1, dek, opBytes, seed)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := rf.all(t, i%8*opBytes/chunkBytes); err != nil {
			return err
		}
	}
	return nil
}
