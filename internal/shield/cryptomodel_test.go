package shield

import (
	"fmt"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/mem"
	"shef/internal/perf"
)

// The engine set's crypto stage is the repository's only model of what
// the Shield's AES pool and MAC cores cost (paper §5.2.2). These tests pin
// it exactly: literal points worked by hand, a closed-form reference over
// the configuration space, and the paper's argument for PMAC (§6.2.3).

// modelSet builds an engine set for cost queries only: a real sealer (so
// the engine's key size and S-box drive the per-block latency) and no
// memory port.
func modelSet(t *testing.T, mac MACKind, key aesx.KeySize, sbox aesx.SBoxParallelism, engines, chunk int) *engineSet {
	t.Helper()
	cfg := RegionConfig{
		Name: "model", Size: uint64(4 * chunk), ChunkSize: chunk,
		AESEngines: engines, SBox: sbox, KeySize: key, MAC: mac,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	seal, err := newSealer(cfg, 1, make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	return newSet(cfg, 1, seal, 0, nil, perf.Default())
}

func ceilDiv(a, b int) uint64 { return uint64((a + b - 1) / b) }

// refStages is the closed form of the crypto stage for n chunks: the AES
// pool serves ⌈cs/16⌉ CTR blocks per chunk, plus ⌈cs/16⌉+1 PMAC blocks
// under PMAC, in waves of AESEngines blocks at rounds·16/sbox cycles per
// block; the serial HMAC core takes 54 cycles per SHA block over
// 3 + ⌈cs/64⌉ blocks per chunk.
func refStages(mac MACKind, key aesx.KeySize, sbox aesx.SBoxParallelism, engines, chunk, n int) (pool, hmac uint64) {
	if n <= 0 {
		return 0, 0
	}
	perBlock := uint64(key.Rounds() * 16 / int(sbox))
	blocks := n * ((chunk + 15) / 16)
	if mac == PMAC {
		blocks += n * ((chunk+15)/16 + 1)
	} else {
		hmac = uint64(n) * (3 + ceilDiv(chunk, 64)) * 54
	}
	return ceilDiv(blocks, engines) * perBlock, hmac
}

func TestCryptoCostPinnedPoints(t *testing.T) {
	cases := []struct {
		mac     MACKind
		key     aesx.KeySize
		sbox    aesx.SBoxParallelism
		engines int
		chunk   int
		n       int

		chunkCycles     uint64 // cryptoCycles()
		pool, hmacStage uint64 // cryptoStages(n)
	}{
		// SDP's 4 KB authentication block (Table 2): HMAC's serial core
		// (67 SHA blocks x 54) dominates the 4-engine pool (64 waves x 10).
		{HMAC, aesx.AES128, aesx.SBox16x, 4, 4096, 16, 3618, 10240, 57888},
		// The same block under PMAC: 513 pool blocks, 129 waves.
		{PMAC, aesx.AES128, aesx.SBox16x, 4, 4096, 16, 1290, 20520, 0},
		// A narrow, slow pool: AES-256/4x costs 56 cycles per block and the
		// pool, not the HMAC core, paces the chunk.
		{HMAC, aesx.AES256, aesx.SBox4x, 1, 512, 16, 1792, 28672, 9504},
		// PMAC with 1x S-boxes: 224 cycles per block, 9 blocks per 64 B
		// chunk on two engines.
		{PMAC, aesx.AES256, aesx.SBox1x, 2, 64, 3, 1120, 3136, 0},
		// No chunks cross the pipeline: no crypto stage.
		{HMAC, aesx.AES128, aesx.SBox4x, 4, 512, 0, 594, 0, 0},
	}
	for _, c := range cases {
		s := modelSet(t, c.mac, c.key, c.sbox, c.engines, c.chunk)
		if got := s.cryptoCycles(); got != c.chunkCycles {
			t.Errorf("%v %v/%v x%d chunk %d: cryptoCycles = %d, want %d",
				c.mac, c.key, c.sbox, c.engines, c.chunk, got, c.chunkCycles)
		}
		pool, hmac := s.cryptoStages(c.n)
		if pool != c.pool || hmac != c.hmacStage {
			t.Errorf("%v %v/%v x%d chunk %d: cryptoStages(%d) = (%d, %d), want (%d, %d)",
				c.mac, c.key, c.sbox, c.engines, c.chunk, c.n, pool, hmac, c.pool, c.hmacStage)
		}
	}
}

func TestCryptoCostMatchesClosedForm(t *testing.T) {
	for _, mac := range []MACKind{HMAC, PMAC} {
		for _, key := range []aesx.KeySize{aesx.AES128, aesx.AES256} {
			for _, sbox := range []aesx.SBoxParallelism{aesx.SBox1x, aesx.SBox2x, aesx.SBox4x, aesx.SBox8x, aesx.SBox16x} {
				for _, engines := range []int{1, 2, 3, 4, 8, 16} {
					for _, chunk := range []int{16, 64, 80, 512, 1024, 4096} {
						name := fmt.Sprintf("%v/%v/%v/x%d/%d", mac, key, sbox, engines, chunk)
						s := modelSet(t, mac, key, sbox, engines, chunk)
						pool1, hmac1 := refStages(mac, key, sbox, engines, chunk, 1)
						if got, want := s.cryptoCycles(), max(pool1, hmac1); got != want {
							t.Fatalf("%s: cryptoCycles = %d, want %d", name, got, want)
						}
						for _, n := range []int{0, 1, 2, 7, 16} {
							pool, hmac := s.cryptoStages(n)
							wp, wh := refStages(mac, key, sbox, engines, chunk, n)
							if pool != wp || hmac != wh {
								t.Fatalf("%s: cryptoStages(%d) = (%d, %d), want (%d, %d)",
									name, n, pool, hmac, wp, wh)
							}
						}
					}
				}
			}
		}
	}
}

// TestPMACStageScalesWithEngines is the paper's reason for PMAC (§6.2.3):
// PMAC's block computations share the AES pool, so adding engines shortens
// the MAC stage of a window; HMAC chains block to block, so its stage does
// not move, and its per-chunk cost floors at the serial core however wide
// the pool grows.
func TestPMACStageScalesWithEngines(t *testing.T) {
	const chunk, window = 4096, 16
	var prevPMAC, hmac1 uint64
	for i, engines := range []int{1, 2, 4, 8, 16} {
		p := modelSet(t, PMAC, aesx.AES128, aesx.SBox16x, engines, chunk)
		pmacPool, _ := p.cryptoStages(window)
		if i > 0 && pmacPool >= prevPMAC {
			t.Errorf("PMAC stage did not fall: %d engines %d cycles, before %d", engines, pmacPool, prevPMAC)
		}
		prevPMAC = pmacPool

		h := modelSet(t, HMAC, aesx.AES128, aesx.SBox16x, engines, chunk)
		_, hmacStage := h.cryptoStages(window)
		if i == 0 {
			hmac1 = hmacStage
		} else if hmacStage != hmac1 {
			t.Errorf("HMAC stage moved with %d engines: %d, want %d", engines, hmacStage, hmac1)
		}
		if got := h.cryptoCycles(); got < hmac1/window {
			t.Errorf("HMAC chunk cost %d below the serial core's %d", got, hmac1/window)
		}
	}
	one := modelSet(t, PMAC, aesx.AES128, aesx.SBox16x, 1, chunk)
	four := modelSet(t, PMAC, aesx.AES128, aesx.SBox16x, 4, chunk)
	p1, _ := one.cryptoStages(window)
	p4, _ := four.cryptoStages(window)
	if float64(p1)/float64(p4) < 3.9 {
		t.Errorf("4-engine PMAC speedup %.2fx, want close to 4x", float64(p1)/float64(p4))
	}
}

// TestBareSetHasNoCryptoStage: the unsecured baseline (NewBarePort) is an
// engine set without a sealer, so Figures 5-6 charge it no crypto time.
func TestBareSetHasNoCryptoStage(t *testing.T) {
	cfg := RegionConfig{Name: "bare", Size: 4096, ChunkSize: 512, AESEngines: 1,
		SBox: aesx.SBox4x, KeySize: aesx.AES128}
	s := newSet(cfg, 1, nil, 0, nil, perf.Default())
	if got := s.cryptoCycles(); got != 0 {
		t.Errorf("bare cryptoCycles = %d, want 0", got)
	}
	if pool, hmac := s.cryptoStages(16); pool != 0 || hmac != 0 {
		t.Errorf("bare cryptoStages = (%d, %d), want (0, 0)", pool, hmac)
	}
}

// TestSingleChunkCharge pins the one-chunk charge that a chunked miss and
// a lone write-back pay: the data and tag burst at the set's bandwidth
// share, partially overlapped (ChunkTime) with cryptoCycles, plus the
// per-chunk issue cost.
func TestSingleChunkCharge(t *testing.T) {
	params := perf.Default()
	for _, mac := range []MACKind{HMAC, PMAC} {
		cfg := RegionConfig{Name: "one", Size: 4 * 512, ChunkSize: 512, AESEngines: 2,
			SBox: aesx.SBox4x, KeySize: aesx.AES256, MAC: mac, BufferBytes: 2 * 512}
		seal, err := newSealer(cfg, 1, make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		s := newSet(cfg, 1, seal, 1<<14, mem.NewDRAM(1<<16, params), params)
		wantBusy := params.ChunkTime(params.DRAMCyclesShared(512+TagSize, 1), s.cryptoCycles()) +
			params.ChunkIssueCycles
		wantDRAM := params.DRAMCycles(512 + TagSize)

		if _, err := s.write(1024, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		s.resetStats()
		if err := s.flush(); err != nil {
			t.Fatal(err)
		}
		if st := s.stats(); st.BusyCycles != wantBusy || st.DRAMCycles != wantDRAM {
			t.Errorf("%v write-back: busy %d dram %d, want %d %d", mac, st.BusyCycles, st.DRAMCycles, wantBusy, wantDRAM)
		}

		s.invalidateClean()
		s.resetStats()
		if _, err := s.read(1024, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		hit := uint64(1 + 512/64) // chargeHit of the copy out
		if st := s.stats(); st.BusyCycles != wantBusy+hit || st.DRAMCycles != wantDRAM || st.Misses != 1 {
			t.Errorf("%v miss: busy %d dram %d misses %d, want %d %d 1",
				mac, st.BusyCycles, st.DRAMCycles, st.Misses, wantBusy+hit, wantDRAM)
		}
	}
}
