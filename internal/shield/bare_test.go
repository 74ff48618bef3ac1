package shield

import (
	"bytes"
	"testing"

	"shef/internal/axi"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// TestNewBareRejectsAccessLeavingItsRegion holds the baseline to the
// Shield's routing rule: a burst or stream that crosses a region end, or
// lies outside every region, is an error. Routing by start address alone
// would cache the neighbouring region's bytes under this region's chunk
// indices.
func TestNewBareRejectsAccessLeavingItsRegion(t *testing.T) {
	cfg := simpleConfig() // "data" [0, 64 KiB), "stream" [64 KiB, 128 KiB)
	dram := mem.NewDRAM(1<<20, perf.Default())
	end := cfg.Regions[0].Base + cfg.Regions[0].Size
	if _, err := dram.WriteBurst(0, bytes.Repeat([]byte{0x11}, int(end))); err != nil {
		t.Fatal(err)
	}
	if _, err := dram.WriteBurst(end, bytes.Repeat([]byte{0x22}, int(cfg.Regions[1].Size))); err != nil {
		t.Fatal(err)
	}
	bare, err := NewBare(cfg, dram, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	sh := newRig(t, cfg).shield

	buf := make([]byte, 1024)
	cross, outside := end-512, uint64(1<<19)
	for name, p := range map[string]*Shield{"bare": bare, "shield": sh} {
		for _, op := range []struct {
			what string
			do   func() (uint64, error)
		}{
			{"ReadBurst across the region end", func() (uint64, error) { return p.ReadBurst(cross, buf) }},
			{"WriteBurst across the region end", func() (uint64, error) { return p.WriteBurst(cross, buf) }},
			{"ReadStream across the region end", func() (uint64, error) { return p.ReadStream(cross, buf) }},
			{"WriteStream across the region end", func() (uint64, error) { return p.WriteStream(cross, buf) }},
			{"ReadBurst outside every region", func() (uint64, error) { return p.ReadBurst(outside, buf) }},
			{"ReadStream outside every region", func() (uint64, error) { return p.ReadStream(outside, buf) }},
		} {
			if _, err := op.do(); err == nil {
				t.Errorf("%s: %s succeeded, want an error", name, op.what)
			}
		}
	}

	// The rejected bursts cached nothing: the region's last chunk still
	// reads as its own bytes.
	last := make([]byte, 512)
	if _, err := bare.ReadBurst(cross, last); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last, bytes.Repeat([]byte{0x11}, 512)) {
		t.Error("bare: region's last chunk does not read back its own bytes")
	}
}

// TestBareShieldHasNoKey: a bare Shield takes no Load Key, publishes no
// key and has no register file, yet serves the host's plaintext through
// the Shield's gather and writes plaintext back.
func TestBareShieldHasNoKey(t *testing.T) {
	cfg := simpleConfig()
	dram := mem.NewDRAM(1<<20, perf.Default())
	img := make([]byte, cfg.Regions[0].Size)
	for i := range img {
		img[i] = byte(i * 7)
	}
	if _, err := dram.WriteBurst(cfg.Regions[0].Base, img); err != nil {
		t.Fatal(err)
	}
	bare, err := NewBare(cfg, dram, perf.Default())
	if err != nil {
		t.Fatal(err)
	}

	if bare.PublicKey() != nil {
		t.Error("bare Shield publishes a public key")
	}
	if bare.Registers() != nil {
		t.Error("bare Shield has a register file")
	}
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := keywrap.Wrap(&priv.PublicKey, bytes.Repeat([]byte{0x5A}, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.ProvisionLoadKey(lk); err == nil {
		t.Error("bare Shield accepted a Load Key")
	}

	runs := []axi.Burst{{Addr: 1024, Len: 2048}, {Addr: 8192, Len: 512}}
	got := make([]byte, 2560)
	if _, err := bare.ReadGather(runs, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2048], img[1024:3072]) || !bytes.Equal(got[2048:], img[8192:8704]) {
		t.Fatal("gather did not return the host's plaintext")
	}

	want := bytes.Repeat([]byte{0xC3}, len(got))
	if _, err := bare.WriteGather(runs, want); err != nil {
		t.Fatal(err)
	}
	if err := bare.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.ReadGather(runs, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gather did not read back what the gather wrote")
	}
	for _, r := range runs {
		raw := make([]byte, r.Len)
		if err := dram.RawReadInto(r.Addr, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want[:r.Len]) {
			t.Errorf("DRAM at %v does not hold the written plaintext", r)
		}
	}
}
