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

const (
	tamperChunk  = 512
	tamperChunks = 2048 // a 1 MiB region
)

// tamperConfig is a 1 MiB region of 512-byte chunks with mac and a
// four-line buffer, as in the Real benchmarks.
func tamperConfig(mac MACKind) Config {
	return Config{
		Regions: []RegionConfig{{
			Name: "bulk", Base: 0, Size: tamperChunks * tamperChunk, ChunkSize: tamperChunk,
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
	ct, tags, err := SealRegionData(cfg.Regions[0], 1, rig.dek, img)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := rig.shield.Layout("bulk")
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.dram.RawWrite(layout.DataBase, ct); err != nil {
		t.Fatal(err)
	}
	if err := rig.dram.RawWrite(layout.TagBase, tags); err != nil {
		t.Fatal(err)
	}
	if err := rig.shield.MarkPreloaded("bulk"); err != nil {
		t.Fatal(err)
	}
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

// TestStreamTamperMidStream reads a 1 MiB region whose chunk 600 fails
// verification. Chunk 600 is slot 8 of window 37. Resident lines sit in
// an earlier window (chunk 10), in the bad window after the bad chunk
// (605) and in a later window (900).
func TestStreamTamperMidStream(t *testing.T) {
	const bad, badWindow = 600, 600 / streamWindowChunks
	resident := []int{10, 605, 900}
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
				want := sentinelBuf(tamperChunks)
				copy(want, img[:bad*tamperChunk])
				copy(want[605*tamperChunk:], img[605*tamperChunk:606*tamperChunk])
				cyc, err := rig.shield.ReadStream(0, buf)
				checkTamperOutcome(t, rig, bad, cyc, err, buf, want, refCyc, ref.shield.Report().Regions[0])
			})
		}
	}
}

// tamperGatherRuns returns the runs of the first slots gather slots of a
// pattern of three-chunk runs, one every five chunks: slot s carries
// chunk s/3*5 + s%3. 600 slots (300 KiB) end at chunk 997.
func tamperGatherRuns(slots int) []axi.Burst {
	var runs []axi.Burst
	for s := 0; s < slots; s += 3 {
		runs = append(runs, axi.Burst{Addr: uint64(s / 3 * 5 * tamperChunk), Len: min(3, slots-s) * tamperChunk})
	}
	return runs
}

// TestGatherTamperMidGather gathers 600 scattered chunks whose slot 405
// (chunk 675, slot 5 of window 25) fails verification. Resident lines sit
// in an earlier window (slot 20, chunk 32), in the bad window after the
// bad slot (slot 410, chunk 682) and in a later window (slot 500, chunk
// 832).
func TestGatherTamperMidGather(t *testing.T) {
	const slots, badSlot = 600, 405
	slotChunk := func(s int) int { return s/3*5 + s%3 }
	resident := []int{slotChunk(20), slotChunk(410), slotChunk(500)}
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
				tamperChunkAt(t, rig, slotChunk(badSlot))
				buf := sentinelBuf(slots)
				want := sentinelBuf(slots)
				for s := 0; s < slots; s++ {
					if s < badSlot || s == 410 {
						c := slotChunk(s)
						copy(want[s*tamperChunk:], img[c*tamperChunk:(c+1)*tamperChunk])
					}
				}
				cyc, err := rig.shield.ReadGather(tamperGatherRuns(slots), buf)
				checkTamperOutcome(t, rig, slotChunk(badSlot), cyc, err, buf, want, refCyc, ref.shield.Report().Regions[0])
			})
		}
	}
}

// TestStreamTamperTwoChunks adds a second bad chunk, 1000, to
// TestStreamTamperMidStream's read. Chunks 600 and 1000 share a batch but
// fall in different workers' ranges when the batch splits, so the lowest
// failure, chunk 600, must still decide the error, the bytes and the
// charges.
func TestStreamTamperTwoChunks(t *testing.T) {
	const bad, badWindow = 600, 600 / streamWindowChunks
	resident := []int{10, 605, 900}
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
				tamperChunkAt(t, rig, 1000)
				buf := sentinelBuf(tamperChunks)
				want := sentinelBuf(tamperChunks)
				copy(want, img[:bad*tamperChunk])
				copy(want[605*tamperChunk:], img[605*tamperChunk:606*tamperChunk])
				cyc, err := rig.shield.ReadStream(0, buf)
				checkTamperOutcome(t, rig, bad, cyc, err, buf, want, refCyc, ref.shield.Report().Regions[0])
			})
		}
	}
}
