package oram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"shef/internal/axi"
	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/shield"
)

// oramShield builds a provisioned one-region Shield big enough for the
// configuration: the streaming-headline engine set (16 AES engines, PMAC,
// 512 B chunks) so the batched path has a pipeline to ride.
func oramShield(t testing.TB, cfg Config) *shield.Shield {
	t.Helper()
	foot := cfg.FootprintBytes()
	if foot == 0 {
		t.Fatal("invalid ORAM config")
	}
	regionSize := (foot + 511) / 512 * 512
	scfg := shield.Config{Regions: []shield.RegionConfig{{
		Name: "oram", Base: 0, Size: regionSize, ChunkSize: 512,
		AESEngines: 16, SBox: aesx.SBox16x, KeySize: aesx.AES128,
		MAC: shield.PMAC, BufferBytes: 8 << 10, Freshness: true,
	}}}
	dram := mem.NewDRAM(regionSize*2+1<<20, perf.Default())
	ocm := mem.NewOCM(1 << 31)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shield.New(scfg, priv, dram, ocm, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	dek := bytes.Repeat([]byte{9}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		t.Fatal(err)
	}
	return sh
}

// driveMixed runs a deterministic read/write mix and returns the cycle
// total the controller accumulated.
func driveMixed(t testing.TB, o *ORAM, blocks, bs, ops int, seed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, bs)
	for i := 0; i < ops; i++ {
		b := rng.Intn(blocks)
		if i%2 == 0 {
			rng.Read(data)
			if err := o.Write(b, data); err != nil {
				t.Fatal(err)
			}
		} else if _, err := o.Read(b); err != nil {
			t.Fatal(err)
		}
	}
	return o.Cycles()
}

// TestORAMBatchedSpeedup is the acceptance gate: at 4096 blocks × 512 B
// over a Shield region, gathering the chunk-aligned path into one stream
// each way must beat packed buckets moved one burst each by ≥1.5x in
// deterministic simulated cycles.
func TestORAMBatchedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 4096-block trees over Shields")
	}
	const blocks, bs, ops = 4096, 512, 40
	serialCfg := Config{Blocks: blocks, BlockSize: bs, Seed: 5}
	batchedCfg := Config{Blocks: blocks, BlockSize: bs, Seed: 5, ChunkAlign: 512}

	serial, err := NewWithConfig(oramShield(t, serialCfg), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewWithConfig(oramShield(t, batchedCfg), batchedCfg)
	if err != nil {
		t.Fatal(err)
	}
	serialCycles := driveMixed(t, serial, blocks, bs, ops, 23)
	batchedCycles := driveMixed(t, batched, blocks, bs, ops, 23)
	speedup := float64(serialCycles) / float64(batchedCycles)
	t.Logf("serial %d cyc, batched %d cyc: %.2fx (%.0f cyc/access batched)",
		serialCycles, batchedCycles, speedup, float64(batchedCycles)/ops)
	if speedup < 1.5 {
		t.Fatalf("batched path %.2fx over serial, want ≥1.5x", speedup)
	}
}

// portCounts tallies the transactions a controller issues, by entry point.
type portCounts struct {
	readBursts, writeBursts   int
	readStreams, writeStreams int
	readGathers, writeGathers int
}

// burstCounter forwards bursts to a port that has nothing else.
type burstCounter struct {
	axi.MemoryPort
	n *portCounts
}

func (c burstCounter) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	c.n.readBursts++
	return c.MemoryPort.ReadBurst(addr, buf)
}

func (c burstCounter) WriteBurst(addr uint64, data []byte) (uint64, error) {
	c.n.writeBursts++
	return c.MemoryPort.WriteBurst(addr, data)
}

// engineCounter also forwards the Shield's stream and gather engines.
type engineCounter struct {
	burstCounter
	sh *shield.Shield
}

func (c engineCounter) ReadStream(addr uint64, buf []byte) (uint64, error) {
	c.n.readStreams++
	return c.sh.ReadStream(addr, buf)
}

func (c engineCounter) WriteStream(addr uint64, data []byte) (uint64, error) {
	c.n.writeStreams++
	return c.sh.WriteStream(addr, data)
}

func (c engineCounter) ReadGather(runs []axi.Burst, buf []byte) (uint64, error) {
	c.n.readGathers++
	return c.sh.ReadGather(runs, buf)
}

func (c engineCounter) WriteGather(runs []axi.Burst, data []byte) (uint64, error) {
	c.n.writeGathers++
	return c.sh.WriteGather(runs, data)
}

// TestORAMPathMode pins how the controller moves data on each kind of
// port. Chunk-aligned buckets over a Shield move every path as one
// ReadGather plus one WriteGather and initialise the tree in slab
// gathers. Any other pairing (packed buckets over a Shield, any geometry
// over plain DRAM) moves every bucket in its own burst, both at
// initialisation and on each access.
func TestORAMPathMode(t *testing.T) {
	const blocks, bs, ops = 64, 64, 16
	for _, tc := range []struct {
		name   string
		align  int
		shield bool
	}{
		{"shield-align512", 512, true},
		{"shield-packed", 0, true},
		{"dram-align512", 512, false},
		{"dram-packed", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Blocks: blocks, BlockSize: bs, Seed: 3, ChunkAlign: tc.align}
			var n portCounts
			var port axi.MemoryPort
			if tc.shield {
				sh := oramShield(t, cfg)
				port = engineCounter{burstCounter{sh, &n}, sh}
			} else {
				port = burstCounter{mem.NewDRAM(cfg.FootprintBytes()+1<<16, perf.Default()), &n}
			}
			o, err := NewWithConfig(port, cfg)
			if err != nil {
				t.Fatal(err)
			}
			buckets := o.TreeBuckets()
			gather := tc.shield && tc.align > 0
			want := portCounts{writeBursts: buckets}
			if gather {
				want = portCounts{writeGathers: (buckets + initSlabBuckets - 1) / initSlabBuckets}
			}
			if n != want {
				t.Errorf("initialisation issued %+v, want %+v", n, want)
			}
			n = portCounts{}
			driveMixed(t, o, blocks, bs, ops, 9)
			perPath := o.levels + 1
			want = portCounts{readBursts: ops * perPath, writeBursts: ops * perPath}
			if gather {
				want = portCounts{readGathers: ops, writeGathers: ops}
			}
			if n != want {
				t.Errorf("%d accesses issued %+v, want %+v", ops, n, want)
			}
		})
	}
}

// TestORAMDeterministic mirrors the Shield's TestFlushDeterministic: with
// the same seed and access sequence, two fresh controllers produce
// byte-identical backend write traffic and identical simulated cycle
// counts. This is what the sorted-order eviction buys — a map-order walk
// made layout and cycle counts differ run to run.
func TestORAMDeterministic(t *testing.T) {
	const blocks, bs, ops = 128, 64, 400
	run := func() (string, uint64) {
		dram := mem.NewDRAM(FootprintBytes(blocks, bs)+1<<16, perf.Default())
		rec := &hashingRecorder{inner: dram, h: fnv.New64a()}
		o, err := New(rec, 0, blocks, bs, 99)
		if err != nil {
			t.Fatal(err)
		}
		cycles := driveMixed(t, o, blocks, bs, ops, 7)
		return fmt.Sprintf("%x", rec.h.Sum64()), cycles
	}
	trace1, cycles1 := run()
	trace2, cycles2 := run()
	if trace1 != trace2 {
		t.Fatalf("backend write traces differ across identical runs: %s vs %s", trace1, trace2)
	}
	if cycles1 != cycles2 {
		t.Fatalf("cycle counts differ across identical runs: %d vs %d", cycles1, cycles2)
	}
}

// hashingRecorder folds every backend write (address, length, payload)
// into one hash, so whole-trace comparison is cheap.
type hashingRecorder struct {
	inner *mem.DRAM
	h     interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func (r *hashingRecorder) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	return r.inner.ReadBurst(addr, buf)
}

func (r *hashingRecorder) WriteBurst(addr uint64, data []byte) (uint64, error) {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:], addr)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	r.h.Write(hdr[:])
	r.h.Write(data)
	return r.inner.WriteBurst(addr, data)
}

// TestORAMTypedErrors covers the Access misuse contract: reads must not
// carry data, writes must match the block size, and out-of-range blocks
// are rejected — all as *Error values wrapping the sentinel causes.
func TestORAMTypedErrors(t *testing.T) {
	dram := mem.NewDRAM(1<<20, perf.Default())
	o, err := New(dram, 0, 8, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"read with data", func() error { _, err := o.Access(0, false, make([]byte, 64)); return err }, ErrDataOnRead},
		{"short write", func() error { return o.Write(0, make([]byte, 32)) }, ErrDataLength},
		{"long write", func() error { return o.Write(0, make([]byte, 128)) }, ErrDataLength},
		{"negative block", func() error { _, err := o.Read(-1); return err }, ErrBlockRange},
		{"block past end", func() error { _, err := o.Read(8); return err }, ErrBlockRange},
	}
	for _, tc := range cases {
		err := tc.call()
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		var oe *Error
		if !errors.As(err, &oe) {
			t.Fatalf("%s: error %v is not a typed *oram.Error", tc.name, err)
		}
	}
	// A corrupt stash entry (impossible through the public API) fails the
	// access instead of being silently dropped or mis-sized. Block 3 has
	// never been written, so the forged entry is what the access serves.
	o.mu.Lock()
	o.stash[3] = &stashEntry{data: make([]byte, 32)}
	o.mu.Unlock()
	if _, err := o.Read(3); !errors.Is(err, ErrStashEntry) {
		t.Fatalf("corrupt stash entry: got %v, want %v", err, ErrStashEntry)
	}
}

// TestORAMBucketCorruption: a spoofed backend bucket naming an impossible
// block surfaces as a typed error, never as silent stash state.
func TestORAMBucketCorruption(t *testing.T) {
	const blocks, bs = 16, 64
	dram := mem.NewDRAM(FootprintBytes(blocks, bs)+1<<16, perf.Default())
	o, err := New(dram, 0, blocks, bs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Forge slot 0 of the root bucket (on every path) to name a block that
	// cannot exist.
	var hdr [slotHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(blocks)+5)
	if err := dram.RawWrite(0, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Read(0); !errors.Is(err, ErrBucketEntry) {
		t.Fatalf("corrupt bucket: got %v, want %v", err, ErrBucketEntry)
	}
}

// TestORAMGeometryLimit: geometries whose footprint cannot be addressed in
// 64 bits are rejected in New, not wrapped into colliding bucket
// addresses at runtime (the old bucket*int multiply overflowed).
func TestORAMGeometryLimit(t *testing.T) {
	dram := mem.NewDRAM(1<<20, perf.Default())
	if _, err := New(dram, 0, 1<<45, 64, 1); !errors.Is(err, ErrGeometry) {
		t.Fatalf("2^45-block tree accepted: %v", err)
	}
	if _, err := New(dram, ^uint64(0)-4096, 64, 64, 1); !errors.Is(err, ErrGeometry) {
		t.Fatalf("tree wrapping the address space accepted: %v", err)
	}
}

// TestORAMRandomGeometries is the property test: ORAM equals flat memory
// over random geometries — non-power-of-two block counts, odd block
// sizes, padded strides, and recursive position maps — and both path
// modes, while the stash high-water mark stays bounded. A trial named
// serialtrue runs over plain DRAM, which has no gather engine, so every
// bucket moves in its own burst; serialfalse runs over a Shield, whose
// gather engine carries the path when the stride is chunk-aligned.
func TestORAMRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		blocks := 2 + rng.Intn(250)
		bs := 8 * (1 + rng.Intn(13)) // 8..104 bytes, odd multiples included
		cfg := Config{Blocks: blocks, BlockSize: bs, Seed: int64(trial)}
		serial := rng.Intn(3) == 0
		if rng.Intn(2) == 0 {
			cfg.ChunkAlign = 512
		}
		if rng.Intn(2) == 0 {
			cfg.PosMapThreshold = 16 + rng.Intn(32)
		}
		name := fmt.Sprintf("trial%d-b%d-s%d-serial%v-align%d-pos%d",
			trial, blocks, bs, serial, cfg.ChunkAlign, cfg.PosMapThreshold)
		t.Run(name, func(t *testing.T) {
			var port axi.MemoryPort = mem.NewDRAM(cfg.FootprintBytes()+1<<16, perf.Default())
			if !serial {
				port = oramShield(t, cfg)
			}
			o, err := NewWithConfig(port, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[int][]byte)
			for op := 0; op < 600; op++ {
				b := rng.Intn(blocks)
				if rng.Intn(2) == 0 {
					data := make([]byte, bs)
					rng.Read(data)
					if err := o.Write(b, data); err != nil {
						t.Fatal(err)
					}
					ref[b] = data
				} else {
					got, err := o.Read(b)
					if err != nil {
						t.Fatal(err)
					}
					want := ref[b]
					if want == nil {
						want = make([]byte, bs)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("op %d: block %d mismatch", op, b)
					}
				}
			}
			if _, _, maxStash := o.Stats(); maxStash > 80 {
				t.Fatalf("stash high-water mark %d breaches the Z=4 bound", maxStash)
			}
		})
	}
}

// TestORAMRecursivePositionMap pins the recursion contract: the table
// recurses until it fits the threshold, the footprint covers every level,
// and correctness and determinism hold through the chain.
func TestORAMRecursivePositionMap(t *testing.T) {
	const blocks, bs = 300, 64
	cfg := Config{Blocks: blocks, BlockSize: bs, Seed: 12, PosMapThreshold: 16}
	dram := mem.NewDRAM(cfg.FootprintBytes()+1<<16, perf.Default())
	o, err := NewWithConfig(dram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 300 entries → 19 position-map blocks → 2 → on-chip: depth 3.
	if got := o.Depth(); got != 3 {
		t.Fatalf("recursion depth %d, want 3", got)
	}
	ref := make(map[int][]byte)
	rng := rand.New(rand.NewSource(8))
	for op := 0; op < 1200; op++ {
		b := rng.Intn(blocks)
		if rng.Intn(2) == 0 {
			data := make([]byte, bs)
			rng.Read(data)
			if err := o.Write(b, data); err != nil {
				t.Fatal(err)
			}
			ref[b] = data
		} else {
			got, err := o.Read(b)
			if err != nil {
				t.Fatal(err)
			}
			want := ref[b]
			if want == nil {
				want = make([]byte, bs)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d mismatch", op, b)
			}
		}
	}
	// Position-map traffic is visible in the aggregate stats: more bytes
	// than the top tree alone would move.
	accesses, moved, _ := o.Stats()
	topOnly := uint64(2*(o.levels+1)*o.bucketBytes()) * accesses
	if moved <= topOnly {
		t.Fatalf("aggregate bytes %d do not include recursion traffic (top tree alone %d)", moved, topOnly)
	}
}

// TestORAMConcurrentAccess shares one controller across goroutines under
// -race: the mutex-guarded Access plus atomic stats must hold with
// disjoint per-goroutine block ranges round-tripping correctly.
func TestORAMConcurrentAccess(t *testing.T) {
	const workers, perWorker, bs = 8, 8, 64
	blocks := workers * perWorker
	dram := mem.NewDRAM(FootprintBytes(blocks, bs)+1<<16, perf.Default())
	o, err := New(dram, 0, blocks, bs, 17)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := 0; i < perWorker; i++ {
					b := w*perWorker + i
					data := bytes.Repeat([]byte{byte(w), byte(round), byte(i)}, bs/3+1)[:bs]
					if err := o.Write(b, data); err != nil {
						errs[w] = err
						return
					}
					got, err := o.Read(b)
					if err != nil {
						errs[w] = err
						return
					}
					if !bytes.Equal(got, data) {
						errs[w] = fmt.Errorf("worker %d round %d: block %d corrupted", w, round, b)
						return
					}
				}
				o.Stats() // lock-free stats race against the data path
				o.Amplification()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	accesses, _, _ := o.Stats()
	if want := uint64(workers * 20 * perWorker * 2); accesses != want {
		t.Fatalf("access count %d, want %d", accesses, want)
	}
}
