package shield

import (
	"bytes"
	"testing"

	"shef/internal/mem"
	"shef/internal/perf"
)

// TestBarePortRejectsAccessLeavingItsRegion holds the baseline to the
// Shield's routing rule: a burst or stream that crosses a region end, or
// lies outside every region, is an error. Routing by start address alone
// would cache the neighbouring region's bytes under this region's chunk
// indices.
func TestBarePortRejectsAccessLeavingItsRegion(t *testing.T) {
	cfg := simpleConfig() // "data" [0, 64 KiB), "stream" [64 KiB, 128 KiB)
	dram := mem.NewDRAM(1<<20, perf.Default())
	end := cfg.Regions[0].Base + cfg.Regions[0].Size
	if _, err := dram.WriteBurst(0, bytes.Repeat([]byte{0x11}, int(end))); err != nil {
		t.Fatal(err)
	}
	if _, err := dram.WriteBurst(end, bytes.Repeat([]byte{0x22}, int(cfg.Regions[1].Size))); err != nil {
		t.Fatal(err)
	}
	bare, err := NewBarePort(cfg, dram, perf.Default())
	if err != nil {
		t.Fatal(err)
	}
	sh := newRig(t, cfg).shield

	type port interface {
		ReadBurst(uint64, []byte) (uint64, error)
		WriteBurst(uint64, []byte) (uint64, error)
		ReadStream(uint64, []byte) (uint64, error)
		WriteStream(uint64, []byte) (uint64, error)
	}
	buf := make([]byte, 1024)
	cross, outside := end-512, uint64(1<<19)
	for name, p := range map[string]port{"bare": bare, "shield": sh} {
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
