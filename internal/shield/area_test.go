package shield

import (
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/fpga"
)

// TestTable1Percentages checks that the component areas reproduce the
// utilisation percentages of the paper's Table 1 on the F1 device model.
func TestTable1Percentages(t *testing.T) {
	cases := []struct {
		name           string
		res            fpga.Resources
		bram, lut, reg float64 // paper-reported percentages
	}{
		{"Controller", ControllerArea, 0, 0.26, 0.03},
		{"Engine Set", EngineSetArea, 0.12, 0.12, 0.14},
		{"Reg. Interface", RegInterfaceArea, 0, 0.36, 0.11},
		{"AES-4x", AES4xArea, 0, 0.27, 0.13},
		{"AES-16x", AES16xArea, 0, 0.32, 0.13},
		{"HMAC", HMACArea, 0, 0.44, 0.15},
		{"PMAC", PMACArea, 0, 0.28, 0.14},
	}
	const tol = 0.02 // rounding to two decimals in the paper
	for _, c := range cases {
		u := UtilizationOn(c.res, fpga.VU9P)
		if diff(u.BRAM, c.bram) > tol || diff(u.LUT, c.lut) > tol || diff(u.REG, c.reg) > tol {
			t.Errorf("%s: got %v, want %.2f/%.2f/%.2f", c.name, u, c.bram, c.lut, c.reg)
		}
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestAreaComposition(t *testing.T) {
	cfg := Config{
		Regions: []RegionConfig{{
			Name: "r", Base: 0, Size: 1 << 16, ChunkSize: 512,
			AESEngines: 2, SBox: aesx.SBox16x, KeySize: aesx.AES128,
			MAC: HMAC, BufferBytes: 16 << 10,
		}},
	}
	a := Area(cfg)
	// Manual composition: controller + reg iface (+AES+HMAC) + set base +
	// 2 AES-16x + HMAC + buffer BRAM.
	want := ControllerArea.
		Add(RegInterfaceArea).Add(AES4xArea).Add(HMACArea).
		Add(EngineSetArea).Add(AES16xArea.Scale(2)).Add(HMACArea).
		Add(fpga.Resources{BRAM: 4}) // 16 KB buffer = 4 BRAM36
	if a != want {
		t.Fatalf("Area = %+v, want %+v", a, want)
	}
}

func TestAreaGrowsWithEngines(t *testing.T) {
	base := Config{Regions: []RegionConfig{{
		Name: "r", Base: 0, Size: 1 << 16, ChunkSize: 512,
		AESEngines: 1, SBox: aesx.SBox4x, KeySize: aesx.AES128, MAC: HMAC,
	}}}
	more := base
	more.Regions = append([]RegionConfig(nil), base.Regions...)
	more.Regions[0].AESEngines = 8
	if Area(more).LUT <= Area(base).LUT {
		t.Fatal("more engines did not cost more LUTs")
	}

	hi := base
	hi.Regions = append([]RegionConfig(nil), base.Regions...)
	hi.Regions[0].SBox = aesx.SBox16x
	if Area(hi).LUT <= Area(base).LUT {
		t.Fatal("higher S-box parallelism did not cost more LUTs")
	}
}

func TestFreshnessCostsBRAM(t *testing.T) {
	mk := func(fresh bool) Config {
		return Config{Regions: []RegionConfig{{
			Name: "r", Base: 0, Size: 1 << 20, ChunkSize: 64,
			AESEngines: 1, SBox: aesx.SBox4x, KeySize: aesx.AES128,
			MAC: HMAC, BufferBytes: 64 << 10, Freshness: fresh,
		}}}
	}
	with := Area(mk(true))
	without := Area(mk(false))
	if with.BRAM <= without.BRAM {
		t.Fatal("freshness counters did not consume on-chip memory")
	}
	// 1 MB / 64 B chunks = 16384 counters * 4 B = 64 KB = 16 BRAM36.
	if with.BRAM-without.BRAM != 16 {
		t.Fatalf("counter BRAM = %d tiles, want 16", with.BRAM-without.BRAM)
	}
}

func TestAESEngineAreaInterpolation(t *testing.T) {
	a1 := aesEngineArea(1)
	a4 := aesEngineArea(4)
	a8 := aesEngineArea(8)
	a16 := aesEngineArea(16)
	if !(a1.LUT < a4.LUT && a4.LUT < a8.LUT && a8.LUT < a16.LUT) {
		t.Fatalf("engine area not monotone in S-box copies: %d %d %d %d",
			a1.LUT, a4.LUT, a8.LUT, a16.LUT)
	}
	if a4 != AES4xArea || a16 != AES16xArea {
		t.Fatal("anchor points drifted from Table 1")
	}
}

// TestErrorAndUtilizationText pins the text an operator reads: an
// IntegrityError names its region and chunk, and a Utilization prints
// its three shares to two places.
func TestErrorAndUtilizationText(t *testing.T) {
	err := &IntegrityError{Region: "weights", Chunk: 42}
	if got, want := err.Error(), `shield: integrity violation in region "weights" chunk 42 (off-chip data tampered or replayed)`; got != want {
		t.Errorf("IntegrityError text %q, want %q", got, want)
	}
	u := Utilization{BRAM: 1.5, LUT: 12.345, REG: 0}
	if got, want := u.String(), "BRAM 1.50% / LUT 12.35% / REG 0.00%"; got != want {
		t.Errorf("Utilization text %q, want %q", got, want)
	}
}
