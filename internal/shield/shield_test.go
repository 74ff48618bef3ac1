package shield

import (
	"bytes"
	"strings"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// testRig bundles a provisioned Shield over a small DRAM.
type testRig struct {
	shield *Shield
	dram   *mem.DRAM
	dek    []byte
}

func simpleConfig() Config {
	return Config{
		Regions: []RegionConfig{
			{
				Name: "data", Base: 0, Size: 1 << 16, ChunkSize: 512,
				AESEngines: 1, SBox: aesx.SBox16x, KeySize: aesx.AES128,
				MAC: HMAC, BufferBytes: 4 * 512, Freshness: true,
			},
			{
				Name: "stream", Base: 1 << 16, Size: 1 << 16, ChunkSize: 512,
				AESEngines: 2, SBox: aesx.SBox4x, KeySize: aesx.AES256,
				MAC: PMAC, BufferBytes: 2 * 512,
			},
		},
		Registers: 8,
	}
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	// mem.DRAM allocates only the pages a test touches.
	dram := mem.NewDRAM(1<<24, perf.Default())
	ocm := mem.NewOCM(64 * 1000 * 1000)
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(cfg, priv, dram, ocm, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	dek := bytes.Repeat([]byte{0x5A}, 32)
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		t.Fatal(err)
	}
	return &testRig{shield: sh, dram: dram, dek: dek}
}

func TestUnprovisionedRefusesService(t *testing.T) {
	dram := mem.NewDRAM(1<<20, perf.Default())
	ocm := mem.NewOCM(1 << 30)
	priv, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	sh, err := New(simpleConfig(), priv, dram, ocm, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadBurst(0, make([]byte, 16)); err == nil {
		t.Fatal("unprovisioned shield served a read")
	}
	if err := sh.Flush(); err == nil {
		t.Fatal("unprovisioned shield flushed")
	}
}

func TestWrongLoadKeyRejected(t *testing.T) {
	dram := mem.NewDRAM(1<<20, perf.Default())
	ocm := mem.NewOCM(1 << 30)
	priv, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	other, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	sh, _ := New(simpleConfig(), priv, dram, ocm, perf.Default())
	lk, _ := keywrap.Wrap(&other.PublicKey, bytes.Repeat([]byte{1}, 32), nil)
	if err := sh.ProvisionLoadKey(lk); err == nil {
		t.Fatal("load key for a different shield accepted")
	}
	if sh.Provisioned() {
		t.Fatal("shield armed despite rejected key")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	rig := newRig(t, simpleConfig())
	msg := []byte("the accelerator's working set, which must survive the shield")
	if _, err := rig.shield.WriteBurst(100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := rig.shield.ReadBurst(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("read-after-write mismatch (buffered)")
	}
	// Force the data through DRAM and back.
	if err := rig.shield.Flush(); err != nil {
		t.Fatal(err)
	}
	rig.shield.InvalidateClean()
	got2 := make([]byte, len(msg))
	if _, err := rig.shield.ReadBurst(100, got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Fatal("read-after-flush mismatch (through DRAM)")
	}
}

func TestDRAMHoldsOnlyCiphertext(t *testing.T) {
	rig := newRig(t, simpleConfig())
	secret := bytes.Repeat([]byte("TOPSECRET!"), 60)
	rig.shield.WriteBurst(0, secret)
	rig.shield.Flush()
	// Adversary dumps all of DRAM: the plaintext must not appear.
	dump, err := rig.dram.RawRead(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(dump, []byte("TOPSECRET!")) {
		t.Fatal("plaintext visible in off-chip memory")
	}
}

func TestSpoofingDetected(t *testing.T) {
	rig := newRig(t, simpleConfig())
	rig.shield.WriteBurst(0, bytes.Repeat([]byte{7}, 512))
	rig.shield.Flush()
	rig.shield.InvalidateClean()
	// Adversary flips a ciphertext bit in DRAM.
	ct, _ := rig.dram.RawRead(0, 512)
	ct[13] ^= 1
	rig.dram.RawWrite(0, ct)
	buf := make([]byte, 512)
	_, err := rig.shield.ReadBurst(0, buf)
	if err == nil {
		t.Fatal("spoofed ciphertext accepted")
	}
	var ie *IntegrityError
	if !errorsAs(err, &ie) {
		t.Fatalf("error is %T (%v), want IntegrityError", err, err)
	}
	// The shield latches: further accesses fail too.
	if _, err := rig.shield.ReadBurst(4096, buf); err == nil {
		t.Fatal("shield served reads after integrity violation in region")
	}
}

func TestSplicingDetected(t *testing.T) {
	rig := newRig(t, simpleConfig())
	rig.shield.WriteBurst(0, bytes.Repeat([]byte{1}, 512))
	rig.shield.WriteBurst(512, bytes.Repeat([]byte{2}, 512))
	rig.shield.Flush()
	rig.shield.InvalidateClean()
	// Copy chunk 0's ciphertext+tag over chunk 1 (splicing): the MAC binds
	// the address, so this must fail even though the tag is "valid".
	ct0, _ := rig.dram.RawRead(0, 512)
	rig.dram.RawWrite(512, ct0)
	tagBase := rig.shield.tagBase
	tag0, _ := rig.dram.RawRead(tagBase, TagSize)
	rig.dram.RawWrite(tagBase+TagSize, tag0)
	buf := make([]byte, 512)
	if _, err := rig.shield.ReadBurst(512, buf); err == nil {
		t.Fatal("spliced chunk accepted")
	}
}

func TestReplayDetectedWithFreshness(t *testing.T) {
	rig := newRig(t, simpleConfig())
	// Write v1, flush, snapshot ciphertext+tag, write v2, flush, restore v1.
	rig.shield.WriteBurst(0, bytes.Repeat([]byte{0xA1}, 512))
	rig.shield.Flush()
	snapData, _ := rig.dram.RawRead(0, 512)
	snapTag, _ := rig.dram.RawRead(rig.shield.tagBase, TagSize)

	rig.shield.WriteBurst(0, bytes.Repeat([]byte{0xB2}, 512))
	rig.shield.Flush()
	rig.shield.InvalidateClean()

	rig.dram.RawWrite(0, snapData)
	rig.dram.RawWrite(rig.shield.tagBase, snapTag)

	buf := make([]byte, 512)
	if _, err := rig.shield.ReadBurst(0, buf); err == nil {
		t.Fatal("replayed stale chunk accepted in freshness-protected region")
	}
}

// TestReplayUndetectedWithoutFreshness documents the deliberate trade-off
// the paper describes: streaming regions that skip counters are not
// replay-protected, in exchange for zero counter storage (§5.2.2).
func TestReplayUndetectedWithoutFreshness(t *testing.T) {
	cfg := simpleConfig()
	cfg.Regions = cfg.Regions[:1]
	cfg.Regions[0].Freshness = false
	rig := newRig(t, cfg)

	rig.shield.WriteBurst(0, bytes.Repeat([]byte{0xA1}, 512))
	rig.shield.Flush()
	snapData, _ := rig.dram.RawRead(0, 512)
	snapTag, _ := rig.dram.RawRead(rig.shield.tagBase, TagSize)

	rig.shield.WriteBurst(0, bytes.Repeat([]byte{0xB2}, 512))
	rig.shield.Flush()
	rig.shield.InvalidateClean()

	rig.dram.RawWrite(0, snapData)
	rig.dram.RawWrite(rig.shield.tagBase, snapTag)

	buf := make([]byte, 512)
	if _, err := rig.shield.ReadBurst(0, buf); err != nil {
		t.Fatalf("replay unexpectedly detected without counters: %v", err)
	}
	if buf[0] != 0xA1 {
		t.Fatal("replayed chunk did not decrypt to the stale value")
	}
}

func TestIsolationOutsideRegions(t *testing.T) {
	rig := newRig(t, simpleConfig())
	if _, err := rig.shield.ReadBurst(1<<20, make([]byte, 16)); err == nil {
		t.Fatal("access outside all regions served")
	}
	if _, err := rig.shield.WriteBurst(1<<17, make([]byte, 16)); err == nil {
		t.Fatal("write outside all regions served")
	}
}

func TestBurstMayNotCrossRegions(t *testing.T) {
	rig := newRig(t, simpleConfig())
	// A burst straddling the data/stream boundary must be rejected: each
	// burst maps to exactly one engine set (paper §5.2.2, burst decoder).
	if _, err := rig.shield.WriteBurst(1<<16-8, make([]byte, 16)); err == nil {
		t.Fatal("cross-region burst accepted")
	}
}

func TestRegionsCryptographicallyIsolated(t *testing.T) {
	rig := newRig(t, simpleConfig())
	data := bytes.Repeat([]byte{0xCC}, 512)
	rig.shield.WriteBurst(0, data)
	rig.shield.WriteBurst(1<<16, data)
	rig.shield.Flush()
	ct0, _ := rig.dram.RawRead(0, 512)
	ct1, _ := rig.dram.RawRead(1<<16, 512)
	if bytes.Equal(ct0, ct1) {
		t.Fatal("identical plaintext produced identical ciphertext across regions")
	}
}

func TestFreshnessRotatesCiphertext(t *testing.T) {
	rig := newRig(t, simpleConfig())
	data := bytes.Repeat([]byte{0xDD}, 512)
	rig.shield.WriteBurst(0, data)
	rig.shield.Flush()
	ct1, _ := rig.dram.RawRead(0, 512)
	rig.shield.WriteBurst(0, data)
	rig.shield.Flush()
	ct2, _ := rig.dram.RawRead(0, 512)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("rewriting the same plaintext reused the keystream (IV not rotated)")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	cfg := simpleConfig()
	cfg.Regions = cfg.Regions[:1]
	cfg.Regions[0].BufferBytes = 2 * 512 // two lines only
	rig := newRig(t, cfg)
	// Touch four chunks; earlier ones must be evicted and written back.
	for i := 0; i < 4; i++ {
		rig.shield.WriteBurst(uint64(i*512), bytes.Repeat([]byte{byte(i + 1)}, 512))
	}
	rep := rig.shield.Report()
	if rep.Regions[0].Evictions == 0 {
		t.Fatal("no evictions despite exceeding buffer capacity")
	}
	// All four chunks must read back correctly.
	for i := 0; i < 4; i++ {
		buf := make([]byte, 512)
		rig.shield.ReadBurst(uint64(i*512), buf)
		if buf[0] != byte(i+1) {
			t.Fatalf("chunk %d corrupted after eviction", i)
		}
	}
}

func TestBufferHitsAvoidDRAM(t *testing.T) {
	rig := newRig(t, simpleConfig())
	buf := make([]byte, 64)
	rig.shield.ReadBurst(0, buf) // miss: fetch chunk 0
	rig.dram.ResetStats()
	for i := 0; i < 10; i++ {
		rig.shield.ReadBurst(uint64(i*32), buf[:32]) // all within chunk 0
	}
	if r, w, _, _ := rig.dram.Stats(); r+w != 0 {
		t.Fatalf("buffer hits generated %d DRAM accesses", r+w)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unaligned base", func(c *Config) { c.Regions[0].Base = 100 }},
		{"bad chunk", func(c *Config) { c.Regions[0].ChunkSize = 100 }},
		{"zero size", func(c *Config) { c.Regions[0].Size = 0 }},
		{"overlap", func(c *Config) { c.Regions[1].Base = c.Regions[0].Base + 512 }},
		{"no engines", func(c *Config) { c.Regions[0].AESEngines = 0 }},
		{"bad sbox", func(c *Config) { c.Regions[0].SBox = 5 }},
		{"bad keysize", func(c *Config) { c.Regions[0].KeySize = 24 }},
		{"bad mac", func(c *Config) { c.Regions[0].MAC = 9 }},
		{"negative regs", func(c *Config) { c.Registers = -1 }},
	}
	for _, tc := range cases {
		cfg := simpleConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	good := simpleConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestOCMBudgetEnforced(t *testing.T) {
	dram := mem.NewDRAM(1<<22, perf.Default())
	ocm := mem.NewOCM(8 * 1024) // 1 KB on-chip: far too small
	priv, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	cfg := simpleConfig()
	sh, err := New(cfg, priv, dram, ocm, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	lk, _ := keywrap.Wrap(sh.PublicKey(), bytes.Repeat([]byte{1}, 32), nil)
	if err := sh.ProvisionLoadKey(lk); err == nil {
		t.Fatal("shield armed despite exceeding on-chip memory budget")
	} else if !strings.Contains(err.Error(), "OCM") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func errorsAs(err error, target **IntegrityError) bool {
	for err != nil {
		if ie, ok := err.(*IntegrityError); ok {
			*target = ie
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
