package shield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"shef/internal/axi"
	"shef/internal/crypto/aesx"
)

// This file pins what a streamed or gathered read hands back when one
// chunk in the middle fails verification: the returned cycles, the
// region's stats, the latched error, and exactly which bytes of the
// caller's buffer changed. A read is delivered and charged window by
// window, so the changed bytes are every window before the bad chunk's
// window, plus, inside that window, the chunks fetched before the bad one
// and every slot served from a resident line; the bad window itself is
// not charged. The cycles and stats must equal those of a clean read of
// exactly the windows before the bad one.
//
// mem.DRAM's byte counters are deliberately not pinned: the data path
// may fetch windows past the bad one before it verifies them, and those
// fetches reach DRAM although nothing they carry is delivered or charged.

const tamperChunk = 512

// tamperBatch is how many slots one stream batch moves in a tamper
// region, and tamperChunks sizes the region at two batches, so a read of
// the whole region merges and charges a first batch before the batch that
// holds a bad chunk.
var (
	tamperBatch  = batchSlots(tamperChunk)
	tamperChunks = 2 * tamperBatch
)

// tamperConfig is a two-batch region of 512-byte chunks with mac and a
// four-line buffer, as in the Real benchmarks.
func tamperConfig(mac MACKind) Config {
	return Config{
		Regions: []RegionConfig{{
			Name: "bulk", Base: 0, Size: uint64(tamperChunks * tamperChunk), ChunkSize: tamperChunk,
			AESEngines: 16, SBox: aesx.SBox16x, KeySize: aesx.AES128,
			MAC: mac, BufferBytes: 4 * tamperChunk, Freshness: true,
		}},
		Registers: 4,
	}
}

// newTamperRig preloads a sealed random image into a tamperConfig region
// and makes the given chunks resident (clean) through chunked reads, then
// zeroes the stats.
func newTamperRig(t *testing.T, mac MACKind, resident []int) (*testRig, []byte) {
	t.Helper()
	cfg := tamperConfig(mac)
	rig := newRig(t, cfg)
	img := make([]byte, cfg.Regions[0].Size)
	rand.New(rand.NewSource(31)).Read(img)
	preload(t, rig.shield, rig.dram, rig.dek, "bulk", img)
	for _, c := range resident {
		if _, err := rig.shield.ReadBurst(uint64(c*tamperChunk), make([]byte, tamperChunk)); err != nil {
			t.Fatal(err)
		}
	}
	rig.shield.ResetStats()
	return rig, img
}

// tamperChunkAt flips one ciphertext byte of chunk in DRAM.
func tamperChunkAt(t *testing.T, rig *testRig, chunk int) {
	t.Helper()
	addr := uint64(chunk*tamperChunk + 100)
	raw, err := rig.dram.RawRead(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.dram.RawWrite(addr, []byte{raw[0] ^ 0x10}); err != nil {
		t.Fatal(err)
	}
}

// sentinelBuf is a caller buffer of n chunks filled with a marker byte.
func sentinelBuf(n int) []byte {
	return bytes.Repeat([]byte{0xEE}, n*tamperChunk)
}

// checkTamperOutcome compares a tampered read's outcome with the clean
// reference read of the windows before the bad one: the same cycles and
// stats, save the one extra hit of the resident line in the bad window.
func checkTamperOutcome(t *testing.T, rig *testRig, badChunk int, cyc uint64, err error,
	buf, want []byte, refCyc uint64, ref RegionStats) {
	t.Helper()
	var ie *IntegrityError
	if !errors.As(err, &ie) || ie.Region != "bulk" || ie.Chunk != badChunk {
		t.Fatalf("read returned %v, want an IntegrityError for chunk %d", err, badChunk)
	}
	if cyc != refCyc {
		t.Errorf("cycles %d, want %d (the windows before the bad one)", cyc, refCyc)
	}
	want1 := ref
	want1.Hits++
	if got := rig.shield.Report().Regions[0]; got != want1 {
		t.Errorf("stats %+v\nwant  %+v", got, want1)
	}
	if !bytes.Equal(buf, want) {
		for c := 0; c < len(buf)/tamperChunk; c++ {
			if s := buf[c*tamperChunk : (c+1)*tamperChunk]; !bytes.Equal(s, want[c*tamperChunk:(c+1)*tamperChunk]) {
				t.Errorf("buffer slot %d differs from the expected delivery", c)
				break
			}
		}
	}
	// The latch: the same error, no cycles, on every later access.
	if c, err2 := rig.shield.ReadStream(0, make([]byte, 4*tamperChunk)); err2 != err || c != 0 {
		t.Errorf("stream after the fault: %d cycles, %v; want 0 and the latched error", c, err2)
	}
	if _, err2 := rig.shield.ReadBurst(0, make([]byte, 16)); err2 != err {
		t.Errorf("chunked read after the fault: %v; want the latched error", err2)
	}
}

// tamperStreamChunks returns the bad chunk of the stream tamper tests and
// the chunks they make resident. The bad chunk is slot 8 of window 37 of
// the region's second batch, so the whole first batch is merged and
// charged before the batch that fails. Resident lines sit in the first
// batch (chunk 10), in the bad window after the bad chunk (bad+5) and in a
// later window of the second batch.
func tamperStreamChunks() (bad int, resident []int) {
	bad = tamperBatch + 600
	return bad, []int{10, bad + 5, tamperBatch + 900}
}

// tamperStreamWant is what a stream read of the whole region must leave
// in a sentinel buffer when chunk bad fails: every chunk before it and
// the resident line after it in its window.
func tamperStreamWant(img []byte, bad int) []byte {
	want := sentinelBuf(tamperChunks)
	copy(want, img[:bad*tamperChunk])
	copy(want[(bad+5)*tamperChunk:], img[(bad+5)*tamperChunk:(bad+6)*tamperChunk])
	return want
}

// TestStreamTamperMidStream reads a two-batch region whose chunk
// tamperStreamChunks names fails verification.
func TestStreamTamperMidStream(t *testing.T) {
	bad, resident := tamperStreamChunks()
	badWindow := bad / streamWindowChunks
	for _, rm := range realMACs {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", rm.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

				ref, img := newTamperRig(t, rm.mac, resident)
				prefix := badWindow * streamWindowChunks * tamperChunk
				refCyc, err := ref.shield.ReadStream(0, make([]byte, prefix))
				if err != nil {
					t.Fatal(err)
				}

				rig, _ := newTamperRig(t, rm.mac, resident)
				tamperChunkAt(t, rig, bad)
				buf := sentinelBuf(tamperChunks)
				cyc, err := rig.shield.ReadStream(0, buf)
				checkTamperOutcome(t, rig, bad, cyc, err, buf, tamperStreamWant(img, bad), refCyc, ref.shield.Report().Regions[0])
			})
		}
	}
}

// tamperGatherChunk maps a gather slot of the tamper gathers to its chunk:
// three-chunk runs, one every four chunks.
func tamperGatherChunk(s int) int { return s/3*4 + s%3 }

// tamperGatherRuns returns the runs of the first slots gather slots of
// tamperGatherChunk's pattern. The chunks span about 4/3 of the slots, so
// a batch and 600 slots fit in the two-batch region.
func tamperGatherRuns(slots int) []axi.Burst {
	var runs []axi.Burst
	for s := 0; s < slots; s += 3 {
		runs = append(runs, axi.Burst{Addr: uint64(tamperGatherChunk(s) * tamperChunk), Len: min(3, slots-s) * tamperChunk})
	}
	return runs
}

// TestGatherTamperMidGather gathers a batch and 600 more scattered chunks
// whose slot tamperBatch+405 (slot 5 of window 25 of the second batch)
// fails verification, so the whole first batch is merged and charged
// first. Resident lines sit in the first batch (slot 20), in the bad
// window after the bad slot (tamperBatch+410) and in a later window
// (tamperBatch+500).
func TestGatherTamperMidGather(t *testing.T) {
	slots, badSlot := tamperBatch+600, tamperBatch+405
	residentSlots := []int{20, tamperBatch + 410, tamperBatch + 500}
	var resident []int
	for _, s := range residentSlots {
		resident = append(resident, tamperGatherChunk(s))
	}
	badWindow := badSlot / streamWindowChunks
	for _, rm := range realMACs {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", rm.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

				ref, img := newTamperRig(t, rm.mac, resident)
				prefix := badWindow * streamWindowChunks
				refCyc, err := ref.shield.ReadGather(tamperGatherRuns(prefix), make([]byte, prefix*tamperChunk))
				if err != nil {
					t.Fatal(err)
				}

				rig, _ := newTamperRig(t, rm.mac, resident)
				tamperChunkAt(t, rig, tamperGatherChunk(badSlot))
				buf := sentinelBuf(slots)
				want := sentinelBuf(slots)
				for s := 0; s < slots; s++ {
					if s < badSlot || s == residentSlots[1] {
						c := tamperGatherChunk(s)
						copy(want[s*tamperChunk:], img[c*tamperChunk:(c+1)*tamperChunk])
					}
				}
				cyc, err := rig.shield.ReadGather(tamperGatherRuns(slots), buf)
				checkTamperOutcome(t, rig, tamperGatherChunk(badSlot), cyc, err, buf, want, refCyc, ref.shield.Report().Regions[0])
			})
		}
	}
}

// splitWorker returns the worker of a p-way parallel.Group split of n
// units that runs unit j.
func splitWorker(j, n, p int) int {
	w := 0
	for (w+1)*n/p <= j {
		w++
	}
	return w
}

// TestStreamTamperTwoChunks adds a second bad chunk, tamperBatch+1600, to
// TestStreamTamperMidStream's read. Both bad chunks sit in the second
// batch but in different workers' ranges when it splits at 2 and 4 Ps, so
// the lowest failure must still decide the error, the bytes and the
// charges.
func TestStreamTamperTwoChunks(t *testing.T) {
	bad, resident := tamperStreamChunks()
	bad2 := tamperBatch + 1600
	badWindow := bad / streamWindowChunks
	// The second batch opens every slot but its two resident lines, which
	// both sit before bad2.
	opened := tamperBatch - 2
	for _, p := range []int{2, 4} {
		if w1, w2 := splitWorker(bad-tamperBatch, opened, p), splitWorker(bad2-tamperBatch-2, opened, p); w1 == w2 {
			t.Fatalf("at %d Ps both bad chunks open in worker %d", p, w1)
		}
	}
	for _, rm := range realMACs {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P%d", rm.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

				ref, img := newTamperRig(t, rm.mac, resident)
				refCyc, err := ref.shield.ReadStream(0, make([]byte, badWindow*streamWindowChunks*tamperChunk))
				if err != nil {
					t.Fatal(err)
				}

				rig, _ := newTamperRig(t, rm.mac, resident)
				tamperChunkAt(t, rig, bad)
				tamperChunkAt(t, rig, bad2)
				buf := sentinelBuf(tamperChunks)
				cyc, err := rig.shield.ReadStream(0, buf)
				checkTamperOutcome(t, rig, bad, cyc, err, buf, tamperStreamWant(img, bad), refCyc, ref.shield.Report().Regions[0])
			})
		}
	}
}
