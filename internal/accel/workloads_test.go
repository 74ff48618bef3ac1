package accel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"shef/internal/perf"
	"shef/internal/shield"
)

// --- vecadd ---

func TestVecAddCheckCatchesCorruption(t *testing.T) {
	w, _ := New("vecadd", map[string]string{"bytes": "8192"})
	v := w.(*VecAdd)
	rng := rand.New(rand.NewSource(1))
	inputs := v.Inputs(rng)
	outputs := map[string][]byte{}
	for p := 0; p < vecParts; p++ {
		a := inputs[keyN("a", p)]
		b := inputs[keyN("b", p)]
		o := make([]byte, len(a))
		for i := 0; i < len(a); i += 4 {
			binary.LittleEndian.PutUint32(o[i:],
				binary.LittleEndian.Uint32(a[i:])+binary.LittleEndian.Uint32(b[i:]))
		}
		outputs[keyN("o", p)] = o
	}
	if err := v.Check(inputs, outputs); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	outputs["o2"][100] ^= 1
	if err := v.Check(inputs, outputs); err == nil {
		t.Fatal("corrupted output accepted")
	}
}

func keyN(p string, i int) string { return p + string(rune('0'+i)) }

func TestVecAddSizeRounding(t *testing.T) {
	w, _ := New("vecadd", map[string]string{"bytes": "1000"})
	v := w.(*VecAdd)
	if v.Bytes%vecParts != 0 || v.part()%vecChunk != 0 {
		t.Fatalf("size %d not aligned", v.Bytes)
	}
}

// --- matmul ---

func TestMatMulCheckCatchesCorruption(t *testing.T) {
	w, _ := New("matmul", map[string]string{"n": "128"})
	bare, err := RunBare(w, perf.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = bare
	// A wrong product must be rejected.
	m := w.(*MatMul)
	rng := rand.New(rand.NewSource(4))
	inputs := m.Inputs(rng)
	bad := map[string][]byte{"o": make([]byte, m.matBytes())} // zeros
	if err := m.Check(inputs, bad); err == nil {
		t.Fatal("all-zero product accepted")
	}
}

// --- digitrec ---

func TestKNNConsiderKeepsSorted(t *testing.T) {
	k := newKNN(3)
	for _, d := range []int{50, 10, 30, 5, 40} {
		k.consider(d, byte(d%10))
	}
	if !(k.dist[0] == 5 && k.dist[1] == 10 && k.dist[2] == 30) {
		t.Fatalf("top-k wrong: %v", k.dist)
	}
}

func TestKNNVoteMajority(t *testing.T) {
	k := newKNN(3)
	k.consider(1, 7)
	k.consider(2, 7)
	k.consider(3, 2)
	if got := k.vote(); got != 7 {
		t.Fatalf("vote = %d, want 7", got)
	}
}

// --- affine ---

func TestAffineSrcPixelBounds(t *testing.T) {
	w, _ := New("affine", map[string]string{"dim": "128"})
	a := w.(*Affine)
	for y := 0; y < a.Dim; y++ {
		for x := 0; x < a.Dim; x++ {
			if px, py, ok := a.srcPixel(x, y); ok {
				if px < 0 || px >= a.Dim || py < 0 || py >= a.Dim {
					t.Fatalf("srcPixel(%d,%d) out of bounds: %d,%d", x, y, px, py)
				}
			}
		}
	}
}

func TestAffineCenterFixedPoint(t *testing.T) {
	w, _ := New("affine", map[string]string{"dim": "128"})
	a := w.(*Affine)
	px, py, ok := a.srcPixel(a.Dim/2, a.Dim/2)
	if !ok || px != a.Dim/2 || py != a.Dim/2 {
		t.Fatalf("centre not fixed: %d,%d,%v", px, py, ok)
	}
}

// --- dnnweaver ---

func TestDNNWeaverDeterministic(t *testing.T) {
	p := map[string]string{"batch": "4"}
	w1, _ := New("dnnweaver", p)
	w2, _ := New("dnnweaver", p)
	r1, err := RunBare(w1, perf.Default(), 9)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBare(w2, perf.Default(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.ComputeCycles != r2.ComputeCycles {
		t.Fatal("same seed produced different simulated time")
	}
}

func TestDNNWeaverShieldConfigShape(t *testing.T) {
	w, _ := New("dnnweaver", nil)
	d := w.(*DNNWeaver)
	cfg := d.ShieldConfig(V128x16)
	var weights, fmaps *shield.RegionConfig
	for i := range cfg.Regions {
		switch cfg.Regions[i].Name {
		case "weights":
			weights = &cfg.Regions[i]
		case "fmaps":
			fmaps = &cfg.Regions[i]
		}
	}
	if weights == nil || fmaps == nil {
		t.Fatal("missing regions")
	}
	// The paper's configuration: 4KB weight chunks, 64B fmap chunks,
	// counters only on the feature maps.
	if weights.ChunkSize != 4096 || fmaps.ChunkSize != 64 {
		t.Fatalf("chunk sizes %d/%d", weights.ChunkSize, fmaps.ChunkSize)
	}
	if weights.Freshness || !fmaps.Freshness {
		t.Fatal("freshness assignment inverted")
	}
	if weights.AESEngines != 4 || fmaps.AESEngines != 4 {
		t.Fatal("engine counts wrong")
	}
	// PMAC variant swaps only the weight set's MAC.
	pm := d.ShieldConfig(V128x16PMAC)
	if pm.Regions[0].MAC != shield.PMAC {
		t.Fatal("PMAC variant did not switch the weight set")
	}
	if pm.Regions[1].MAC != shield.HMAC {
		t.Fatal("PMAC variant should leave the fmap set on HMAC")
	}
}

// --- bitcoin ---

// TestDoubleSHAKnownAnswer checks the miner's hash on the FIPS 180-4 "abc"
// message: the outer pass hashes the FIPS digest
// ba7816bf…f20015ad, and the double digest is the known value below.
func TestDoubleSHAKnownAnswer(t *testing.T) {
	const want = "4f8b42c22dd3729b519ba6f68d2da7cc5b2d606d05daed5ad5128cc03e6c6358"
	fips, _ := hex.DecodeString("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
	if got := doubleSHA([]byte("abc")); hex.EncodeToString(got[:]) != want {
		t.Fatalf("doubleSHA(abc) = %x, want %s", got, want)
	}
	if got := sha256.Sum256(fips); hex.EncodeToString(got[:]) != want {
		t.Fatalf("SHA-256 of the FIPS abc digest = %x, want %s", got, want)
	}
}

func TestMeetsDifficulty(t *testing.T) {
	var d [32]byte
	d[0] = 0x00
	d[1] = 0x7F // 9 leading zero bits
	if !meetsDifficulty(d, 9) {
		t.Fatal("9 leading zeros rejected at difficulty 9")
	}
	if meetsDifficulty(d, 10) {
		t.Fatal("9 leading zeros accepted at difficulty 10")
	}
	if !meetsDifficulty(d, 0) {
		t.Fatal("difficulty 0 must always pass")
	}
}

func TestBitcoinPostsNonceToRegister(t *testing.T) {
	w, _ := New("bitcoin", map[string]string{"difficulty": "8"})
	b := w.(*Bitcoin)
	rng := rand.New(rand.NewSource(6))
	b.Inputs(rng)
	if err := b.Check(nil, nil); err == nil {
		t.Fatal("Check passed before any nonce was posted")
	}
	regs := &bareRegs{regs: make([]uint64, 32)}
	ctx := &Ctx{Regs: regs}
	if err := b.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if regs.regs[btcRegStatus] != 1 {
		t.Fatal("status register not set")
	}
	// Verify the posted nonce really meets the difficulty.
	var full [80]byte
	copy(full[:76], b.Header[:])
	binary.LittleEndian.PutUint32(full[76:], uint32(regs.regs[btcRegNonce]))
	if !meetsDifficulty(doubleSHA(full[:]), b.Difficulty) {
		t.Fatal("posted nonce does not satisfy the difficulty")
	}
	if ctx.ComputeCycles() == 0 {
		t.Fatal("no mining compute accounted")
	}
	// Check verifies the nonce read back from the register: the posted
	// one passes, and a recorded nonce that misses the difficulty fails.
	if err := b.Check(nil, nil); err != nil {
		t.Fatalf("Check rejected the posted nonce: %v", err)
	}
	for b.nonce++; ; b.nonce++ {
		binary.LittleEndian.PutUint32(full[76:], b.nonce)
		if !meetsDifficulty(doubleSHA(full[:]), b.Difficulty) {
			break
		}
	}
	if err := b.Check(nil, nil); err == nil {
		t.Fatalf("Check passed nonce %#x, which misses difficulty %d", b.nonce, b.Difficulty)
	}
}

// --- conv ---

func TestConvOutputPaddingZeroed(t *testing.T) {
	w, _ := New("conv", map[string]string{"cin": "8", "cout": "16"})
	sec, err := RunShielded(w, V128x16, perf.Default(), 5)
	if err != nil {
		t.Fatalf("conv export failed (padding not sealed?): %v", err)
	}
	if sec.Cycles == 0 {
		t.Fatal("no time accounted")
	}
}

// --- cross-cutting: region names in shield configs are unique ---

func TestWorkloadConfigsWellFormed(t *testing.T) {
	for _, name := range Designs() {
		w, err := New(name, smallParams(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{V128x16, V256x4, V128x16PMAC} {
			cfg := w.ShieldConfig(v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s %s: invalid config: %v", name, v, err)
			}
			seen := map[string]bool{}
			for _, r := range cfg.Regions {
				if seen[r.Name] {
					t.Errorf("%s: duplicate region %q", name, r.Name)
				}
				seen[r.Name] = true
				if strings.Contains(r.Name, " ") {
					t.Errorf("%s: region name %q has spaces", name, r.Name)
				}
			}
		}
	}
}
