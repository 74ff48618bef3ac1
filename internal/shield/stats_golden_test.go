package shield

import (
	"bytes"
	"math/rand"
	"testing"

	"shef/internal/axi"
	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// This file pins a region's RegionStats, cycles included, after a fixed
// mixed trace that moves chunks along every path between DRAM and the
// buffer: chunked misses, a prefetch streak, dirty evictions with write
// combining, a flush, streams and gathers. The trace runs under PMAC,
// under HMAC with freshness counters, and on the unsecured baseline.

const (
	mixChunk  = 512
	mixChunks = 64
)

// mixConfig is a 32 KiB region of 512-byte chunks with an eight-line
// buffer and the sequential prefetcher armed.
func mixConfig(mac MACKind, fresh bool) Config {
	return Config{
		Regions: []RegionConfig{{
			Name: "mix", Base: 0, Size: mixChunks * mixChunk, ChunkSize: mixChunk,
			AESEngines: 4, SBox: aesx.SBox16x, KeySize: aesx.AES128,
			MAC: mac, BufferBytes: 8 * mixChunk, Freshness: fresh, SeqPrefetch: true,
		}},
		Registers: 4,
	}
}

// newMixShield builds a Shield over cfg whose region holds img: sealed
// and preloaded, or in plaintext for the unsecured baseline.
func newMixShield(t *testing.T, cfg Config, img []byte, bare bool) *Shield {
	t.Helper()
	dram := mem.NewDRAM(1<<20, perf.Default())
	if bare {
		if err := dram.RawWrite(0, img); err != nil {
			t.Fatal(err)
		}
		sh, err := NewBare(cfg, dram, perf.Default())
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(cfg, priv, dram, mem.NewOCM(1<<30), perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0x3C}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		t.Fatal(err)
	}
	preload(t, sh, dram, dek, "mix", img)
	return sh
}

// runMixTrace drives the fixed trace against sh, checking every read
// against a flat model of the region that starts as img.
func runMixTrace(t *testing.T, sh *Shield, img []byte) {
	t.Helper()
	model := bytes.Clone(img)
	rng := rand.New(rand.NewSource(41))
	read := func(what string, addr uint64, n int, op func(uint64, []byte) (uint64, error)) {
		t.Helper()
		buf := make([]byte, n)
		if _, err := op(addr, buf); err != nil {
			t.Fatalf("%s at %#x: %v", what, addr, err)
		}
		if !bytes.Equal(buf, model[addr:addr+uint64(n)]) {
			t.Fatalf("%s at %#x: wrong bytes", what, addr)
		}
	}
	write := func(what string, addr uint64, n int, op func(uint64, []byte) (uint64, error)) {
		t.Helper()
		data := make([]byte, n)
		rng.Read(data)
		if _, err := op(addr, data); err != nil {
			t.Fatalf("%s at %#x: %v", what, addr, err)
		}
		copy(model[addr:], data)
	}
	at := func(chunk, off int) uint64 { return uint64(chunk*mixChunk + off) }

	// Chunked misses, no two in ascending sequence.
	for _, c := range []int{40, 20, 33, 7} {
		read("chunked miss", at(c, 100), 100, sh.ReadBurst)
	}
	// A prefetch streak: the fourth ascending miss fires the prefetcher,
	// later reads hit prefetched lines and the miss at a window's end
	// continues the streak.
	for c := 0; c < 20; c++ {
		read("sequential read", at(c, 8), 64, sh.ReadBurst)
	}
	// Dirty partial writes, then more of them to force dirty evictions
	// whose write-backs combine with resident dirty neighbours.
	for _, c := range []int{27, 25, 26, 24, 44, 45, 12, 46, 47, 48, 60, 61, 62, 36} {
		write("partial write", at(c, 30), 100, sh.WriteBurst)
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	// Streams over resident, dirty and fetched chunks, with unaligned
	// head and tail bytes.
	write("partial write", at(10, 0), 200, sh.WriteBurst)
	read("stream", at(4, 0), 30*mixChunk, sh.ReadStream)
	write("stream", at(8, 300), 21*mixChunk, sh.WriteStream)
	read("stream", at(2, 100), 40*mixChunk, sh.ReadStream)
	// Gathers.
	runs := []axi.Burst{{Addr: at(2, 0), Len: 4 * mixChunk}, {Addr: at(30, 0), Len: 2 * mixChunk}, {Addr: at(60, 0), Len: mixChunk}}
	gbuf := make([]byte, 7*mixChunk)
	rng.Read(gbuf)
	if _, err := sh.WriteGather(runs, gbuf); err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, r := range runs {
		copy(model[r.Addr:], gbuf[off:off+r.Len])
		off += r.Len
	}
	write("partial write", at(31, 10), 50, sh.WriteBurst)
	read("partial read", at(3, 500), 30, sh.ReadBurst)
	runs = append(runs[:1:1], axi.Burst{Addr: at(16, 0), Len: 20 * mixChunk}, axi.Burst{Addr: at(50, 0), Len: 3 * mixChunk})
	gbuf = make([]byte, 27*mixChunk)
	if _, err := sh.ReadGather(runs, gbuf); err != nil {
		t.Fatal(err)
	}
	off = 0
	for _, r := range runs {
		if !bytes.Equal(gbuf[off:off+r.Len], model[r.Addr:r.Addr+uint64(r.Len)]) {
			t.Fatalf("gather run %v: wrong bytes", r)
		}
		off += r.Len
	}
	// More dirty evictions, and a final flush.
	for _, c := range []int{9, 11, 13, 14, 15, 52, 53, 54, 55, 56} {
		write("partial write", at(c, 0), 300, sh.WriteBurst)
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	sh.InvalidateClean()
	read("final stream", 0, mixChunks*mixChunk, sh.ReadStream)
}

// TestMixedTraceStatsGolden runs the mixed trace and compares the
// region's stats with the recorded values.
func TestMixedTraceStatsGolden(t *testing.T) {
	// The trace moves the same chunks along the same paths in every
	// mode; only the cycles differ.
	counts := RegionStats{
		Name: "mix", Hits: 64, Misses: 44, Evictions: 64, Writebacks: 27, BatchedWritebacks: 22,
		Streamed: 187, StreamWindows: 14, Prefetched: 31, PrefetchHits: 11,
	}
	for _, tc := range []struct {
		name       string
		cfg        Config
		bare       bool
		busy, dram uint64
	}{
		{"pmac", mixConfig(PMAC, false), false, 53193, 10893},
		{"hmac+freshness", mixConfig(HMAC, true), false, 182697, 10893},
		{"bare", mixConfig(PMAC, false), true, 11659, 10612},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := make([]byte, mixChunks*mixChunk)
			rand.New(rand.NewSource(40)).Read(img)
			sh := newMixShield(t, tc.cfg, img, tc.bare)
			runMixTrace(t, sh, img)
			want := counts
			want.BusyCycles, want.DRAMCycles = tc.busy, tc.dram
			if got := sh.Report().Regions[0]; got != want {
				t.Errorf("stats %#v\nwant  %#v", got, want)
			}
		})
	}
}
