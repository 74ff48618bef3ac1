package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"shef/internal/perf"
)

func newDRAM() *DRAM { return NewDRAM(1<<24, perf.Default()) }

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDRAM()
	data := []byte("shielded ciphertext goes here")
	if _, err := d.WriteBurst(0x1000, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := d.ReadBurst(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestZeroInitialised(t *testing.T) {
	d := newDRAM()
	buf := make([]byte, 64)
	d.ReadBurst(0xF0000, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh DRAM not zeroed")
		}
	}
}

func TestCrossPageAccess(t *testing.T) {
	d := newDRAM()
	addr := uint64(pageSize - 10)
	data := bytes.Repeat([]byte{0xAB}, 64) // spans two pages
	d.WriteBurst(addr, data)
	buf := make([]byte, 64)
	d.ReadBurst(addr, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-page access corrupted data")
	}
}

func TestOutOfBounds(t *testing.T) {
	d := NewDRAM(1024, perf.Default())
	if _, err := d.WriteBurst(1020, make([]byte, 8)); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if _, err := d.ReadBurst(1<<40, make([]byte, 1)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if err := d.RawWrite(1020, make([]byte, 8)); err == nil {
		t.Fatal("out-of-bounds raw write accepted")
	}
}

func TestCycleAccounting(t *testing.T) {
	d := newDRAM()
	p := perf.Default()
	cyc, _ := d.WriteBurst(0, make([]byte, 4096))
	if cyc != p.DRAMCycles(4096) {
		t.Errorf("write cycles = %d, want %d", cyc, p.DRAMCycles(4096))
	}
}

func TestRawAccessBypassesStats(t *testing.T) {
	d := newDRAM()
	d.RawWrite(0, []byte{1, 2, 3})
	d.RawRead(0, 3)
	r, w, rb, wb := d.Stats()
	if r+w+rb+wb != 0 {
		t.Fatal("adversarial access showed up in traffic stats")
	}
	d.WriteBurst(0, []byte{1})
	if _, w, _, _ := d.Stats(); w != 1 {
		t.Fatal("normal write not counted")
	}
	d.ResetStats()
	if r, w, _, _ := d.Stats(); r != 0 || w != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestSnapshotRestoreReplay(t *testing.T) {
	d := newDRAM()
	d.WriteBurst(0x100, []byte("old value"))
	snap, err := d.RawRead(0x100, 9)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteBurst(0x100, []byte("new value"))
	if err := d.RawWrite(0x100, snap); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	d.ReadBurst(0x100, buf)
	if string(buf) != "old value" {
		t.Fatal("replay did not restore old contents")
	}
}

// Property: DRAM behaves like a flat byte array for arbitrary aligned and
// unaligned writes.
func TestDRAMMatchesFlatArray(t *testing.T) {
	d := NewDRAM(1<<18, perf.Default())
	ref := make([]byte, 1<<18)
	f := func(ops []struct {
		Addr uint32
		Data []byte
	}) bool {
		for _, op := range ops {
			addr := uint64(op.Addr) % (1<<18 - 256)
			data := op.Data
			if len(data) > 256 {
				data = data[:256]
			}
			if _, err := d.WriteBurst(addr, data); err != nil {
				return false
			}
			copy(ref[addr:], data)
		}
		buf := make([]byte, 1<<12)
		for addr := uint64(0); addr < 1<<18; addr += 1 << 12 {
			if _, err := d.ReadBurst(addr, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, ref[addr:addr+1<<12]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOCMBudget(t *testing.T) {
	o := NewOCM(8 * 1024) // 1 KB pool
	buf, err := o.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 512 {
		t.Fatal("wrong allocation size")
	}
	if _, err := o.Alloc(513); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if _, err := o.Alloc(512); err != nil {
		t.Fatal("exact-fit allocation rejected")
	}
	o.Free(512)
	if o.UsedBits() != 512*8 {
		t.Fatalf("used bits = %d after free", o.UsedBits())
	}
	if _, err := o.Alloc(-1); err == nil {
		t.Fatal("negative allocation accepted")
	}
	o.Free(1 << 30) // over-free clamps to zero
	if o.UsedBits() != 0 {
		t.Fatal("over-free did not clamp")
	}
}
