package fpga

import (
	"bytes"
	"testing"

	"shef/internal/crypto/aead"
	"shef/internal/perf"
)

func newDev() *Device { return New(VU9P, "serial-001", perf.Default(), 1<<20) }

func TestEFuseSingleBurn(t *testing.T) {
	d := newDev()
	if err := d.BurnEFuse(make([]byte, 32), false); err != nil {
		t.Fatal(err)
	}
	if err := d.BurnEFuse(make([]byte, 32), false); err == nil {
		t.Fatal("second e-fuse burn accepted")
	}
}

func TestSPBDeviceKeyRaw(t *testing.T) {
	d := newDev()
	key := bytes.Repeat([]byte{0x11}, 32)
	d.BurnEFuse(key, false)
	got, err := NewSPB(d).DeviceAESKey()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("SPB recovered wrong key")
	}
}

func TestSPBDeviceKeyPUFWrapped(t *testing.T) {
	d := newDev()
	key := bytes.Repeat([]byte{0x22}, 32)
	wrapped, err := WrapKeyForEFuse(d.PUF(), key)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wrapped, key) {
		t.Fatal("wrapped payload contains the key in the clear")
	}
	d.BurnEFuse(wrapped, true)
	got, err := NewSPB(d).DeviceAESKey()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("PUF unwrap produced wrong key")
	}
}

func TestPUFWrappedKeyUnusableOnOtherDevice(t *testing.T) {
	d1 := New(VU9P, "device-A", perf.Default(), 1<<20)
	d2 := New(VU9P, "device-B", perf.Default(), 1<<20)
	key := bytes.Repeat([]byte{0x33}, 32)
	wrapped, err := WrapKeyForEFuse(d1.PUF(), key)
	if err != nil {
		t.Fatal(err)
	}
	d2.BurnEFuse(wrapped, true)
	if _, err := NewSPB(d2).DeviceAESKey(); err == nil {
		t.Fatal("PUF-wrapped key from device A unwrapped on device B")
	}
}

func TestSealOpenBlob(t *testing.T) {
	key := bytes.Repeat([]byte{0x44}, 32)
	d := newDev()
	d.BurnEFuse(key, false)
	spb := NewSPB(d)
	fw := []byte("firmware image with embedded private device key")
	blob, err := aead.Seal(key, fw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spb.DecryptBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fw) {
		t.Fatal("blob round trip failed")
	}
	for _, i := range []int{len(blob) / 2, len(blob) - 1} { // body, tag
		blob[i] ^= 1
		if _, err := spb.DecryptBlob(blob); err == nil {
			t.Fatal("tampered blob accepted")
		}
		blob[i] ^= 1
	}
	if _, err := spb.DecryptBlob(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := spb.DecryptBlob(blob[:4]); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

func TestPortScan(t *testing.T) {
	d := newDev()
	if ev := d.ScanPorts(); len(ev) != 0 {
		t.Fatal("clean device reported tamper")
	}
	d.OpenPort(PortJTAG)
	d.OpenPort(PortDAP)
	ev := d.ScanPorts()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	// Ports are closed by the scan.
	if ev := d.ScanPorts(); len(ev) != 0 {
		t.Fatal("scan did not close ports")
	}
	if len(d.TamperLog()) != 2 {
		t.Fatal("tamper log incomplete")
	}
}

func TestZeroize(t *testing.T) {
	d := newDev()
	d.BurnEFuse(make([]byte, 32), false)
	d.LoadStatic("shell")
	d.LoadPartial("accel", Resources{LUT: 100})
	d.Zeroize()
	if !d.Zeroized() {
		t.Fatal("zeroized flag not set")
	}
	if _, err := NewSPB(d).DeviceAESKey(); err == nil {
		t.Fatal("key readable after zeroize")
	}
	if d.PartialLoaded() {
		t.Fatal("fabric still programmed after zeroize")
	}
	if err := d.LoadStatic("shell"); err == nil {
		t.Fatal("static load accepted after zeroize")
	}
}

func TestPartialRequiresShell(t *testing.T) {
	d := newDev()
	if err := d.LoadPartial("accel", Resources{}); err == nil {
		t.Fatal("partial load accepted with no Shell")
	}
	d.LoadStatic("aws-shell-v1")
	if err := d.LoadPartial("accel", Resources{LUT: 50_000, BRAM: 10}); err != nil {
		t.Fatal(err)
	}
	st, pn, use := d.FabricState()
	if st != "aws-shell-v1" || pn != "accel" || use.LUT != 50_000 {
		t.Fatalf("fabric state wrong: %s %s %+v", st, pn, use)
	}
	d.ClearPartial()
	if d.PartialLoaded() {
		t.Fatal("ClearPartial failed")
	}
}

func TestPartialBudgetEnforced(t *testing.T) {
	d := New(Ultra96, "u96", perf.Default(), 1<<20)
	d.LoadStatic("shell")
	if err := d.LoadPartial("huge", Resources{LUT: 10_000_000}); err == nil {
		t.Fatal("over-budget design accepted")
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{BRAM: 1, LUT: 2, REG: 3, URAM: 4}
	b := a.Add(a)
	if b != (Resources{BRAM: 2, LUT: 4, REG: 6, URAM: 8}) {
		t.Fatalf("Add = %+v", b)
	}
	if a.Scale(3) != (Resources{BRAM: 3, LUT: 6, REG: 9, URAM: 12}) {
		t.Fatalf("Scale = %+v", a.Scale(3))
	}
	if !a.FitsIn(b) || b.FitsIn(a) {
		t.Fatal("FitsIn wrong")
	}
}

func TestPUFDeterministicPerDevice(t *testing.T) {
	p1 := NewPUF("X")
	p2 := NewPUF("X")
	p3 := NewPUF("Y")
	c := []byte("challenge")
	if !bytes.Equal(p1.Response(c), p2.Response(c)) {
		t.Fatal("same device PUF not deterministic")
	}
	if bytes.Equal(p1.Response(c), p3.Response(c)) {
		t.Fatal("different devices share PUF responses")
	}
}

func TestEFuseUnprovisioned(t *testing.T) {
	d := newDev()
	if _, err := NewSPB(d).DeviceAESKey(); err == nil {
		t.Fatal("read of unprovisioned fuses succeeded")
	}
}
