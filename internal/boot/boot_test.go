package boot

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"shef/internal/bitstream"
	"shef/internal/crypto/aesx"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/fpga"
	"shef/internal/perf"
	"shef/internal/shield"
)

// Provisioning uses 1024-bit RSA in tests for speed.
var (
	provOnce sync.Once
	provDev  *ProvisionedDevice
	provErr  error
)

func provisioned(t *testing.T) *ProvisionedDevice {
	t.Helper()
	provOnce.Do(func() {
		dev := fpga.New(fpga.Ultra96, "u96-test", perf.Default(), 1<<20)
		m := &Manufacturer{Group: modp.TestGroup, KeyBits: 1024}
		provDev, provErr = m.Provision(dev)
	})
	if provErr != nil {
		t.Fatal(provErr)
	}
	return provDev
}

func bootKernel(t *testing.T) *SecurityKernel {
	t.Helper()
	k, err := Boot(provisioned(t), ReferenceKernel, modp.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootProducesCertifiedAttestKey(t *testing.T) {
	pd := provisioned(t)
	k := bootKernel(t)
	if !VerifyKernelCert(pd.DevicePublic, k.KernelHash(), &k.AttestKey().PublicKey, k.KernelCert()) {
		t.Fatal("kernel certificate does not verify under the device public key")
	}
}

func TestAttestKeyDeterministicPerKernel(t *testing.T) {
	k1 := bootKernel(t)
	k2, err := Boot(provisioned(t), ReferenceKernel, modp.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	if k1.AttestKey().X.Cmp(k2.AttestKey().X) != 0 {
		t.Fatal("same device+kernel produced different attestation keys across boots")
	}
}

func TestAttestKeyBoundToKernelBinary(t *testing.T) {
	k1 := bootKernel(t)
	modified := ReferenceKernel
	modified.Code = append([]byte(nil), ReferenceKernel.Code...)
	modified.Code[0] ^= 1
	k2, err := Boot(provisioned(t), modified, modp.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	if k1.AttestKey().X.Cmp(k2.AttestKey().X) == 0 {
		t.Fatal("modified kernel binary yielded the same attestation key")
	}
	// A certificate for the modified kernel must not validate against the
	// reference hash.
	if VerifyKernelCert(provisioned(t).DevicePublic, ReferenceKernel.Hash(),
		&k2.AttestKey().PublicKey, k2.KernelCert()) {
		t.Fatal("certificate for modified kernel accepted for reference hash")
	}
}

func TestIllegitimateKernelCannotForgeCert(t *testing.T) {
	pd := provisioned(t)
	// An attacker with their own key pair (no device key) cannot produce a
	// valid σ_SecKrnl.
	fake, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	forged := make([]byte, 128)
	if VerifyKernelCert(pd.DevicePublic, ReferenceKernel.Hash(), &fake.PublicKey, forged) {
		t.Fatal("forged kernel certificate accepted")
	}
}

func TestBootFailsOnCorruptFirmware(t *testing.T) {
	pd := provisioned(t)
	bad := &ProvisionedDevice{
		Device:       pd.Device,
		FirmwareBlob: append([]byte(nil), pd.FirmwareBlob...),
		DevicePublic: pd.DevicePublic,
	}
	bad.FirmwareBlob[len(bad.FirmwareBlob)/2] ^= 1
	if _, err := Boot(bad, ReferenceKernel, modp.TestGroup); err == nil {
		t.Fatal("boot succeeded with corrupted firmware")
	}
}

func TestKernelHashCoversNameVersionCode(t *testing.T) {
	base := ReferenceKernel.Hash()
	k := ReferenceKernel
	k.Version = "9.9.9"
	if k.Hash() == base {
		t.Fatal("hash ignores version")
	}
	k = ReferenceKernel
	k.Name = "evil"
	if k.Hash() == base {
		t.Fatal("hash ignores name")
	}
}

func TestLoadAcceleratorRequiresShell(t *testing.T) {
	dev := fpga.New(fpga.VU9P, "f1-x", perf.Default(), 1<<20)
	m := &Manufacturer{Group: modp.TestGroup, KeyBits: 1024}
	pd, err := m.Provision(dev)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(pd, ReferenceKernel, modp.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{1}, 32)
	enc := testBitstream(t, key)
	if _, err := k.LoadAccelerator(enc, key); err == nil {
		t.Fatal("accelerator loaded without a shell")
	}
	if err := k.LoadShell("aws-shell"); err != nil {
		t.Fatal(err)
	}
	man, err := k.LoadAccelerator(enc, key)
	if err != nil {
		t.Fatal(err)
	}
	if man.Design != "noop" {
		t.Fatal("wrong manifest")
	}
	if !k.Device().PartialLoaded() {
		t.Fatal("fabric not programmed")
	}
	// Wrong bitstream key must fail and leave the fabric untouched.
	k.Device().ClearPartial()
	if _, err := k.LoadAccelerator(enc, bytes.Repeat([]byte{2}, 32)); err == nil {
		t.Fatal("bitstream decrypted with wrong key")
	}
	if k.Device().PartialLoaded() {
		t.Fatal("fabric programmed despite failed decryption")
	}
}

func testBitstream(t *testing.T, key []byte) *bitstream.Encrypted {
	t.Helper()
	sk, _ := schnorr.GenerateKey(modp.TestGroup, nil)
	man := &bitstream.Manifest{
		Design: "noop", Version: "1",
		Shield: shield.Config{Regions: []shield.RegionConfig{{
			Name: "r", Base: 0, Size: 4096, ChunkSize: 512,
			AESEngines: 1, SBox: aesx.SBox4x, KeySize: aesx.AES128, MAC: shield.HMAC,
		}}},
		ShieldPrivKey: sk.X.Bytes(),
		Resources:     fpga.Resources{LUT: 1000},
	}
	enc, err := bitstream.Compile("noop-afi", man, key)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestMonitorPortsClearsFabricOnTamper(t *testing.T) {
	dev := fpga.New(fpga.VU9P, "f1-y", perf.Default(), 1<<20)
	m := &Manufacturer{Group: modp.TestGroup, KeyBits: 1024}
	pd, _ := m.Provision(dev)
	k, _ := Boot(pd, ReferenceKernel, modp.TestGroup)
	k.LoadShell("shell")
	key := bytes.Repeat([]byte{1}, 32)
	if _, err := k.LoadAccelerator(testBitstream(t, key), key); err != nil {
		t.Fatal(err)
	}
	if ev := k.MonitorPorts(); len(ev) != 0 {
		t.Fatal("clean device reported tamper")
	}
	dev.OpenPort(fpga.PortJTAG)
	ev := k.MonitorPorts()
	if len(ev) != 1 {
		t.Fatalf("got %d tamper events, want 1", len(ev))
	}
	if dev.PartialLoaded() {
		t.Fatal("accelerator left running after JTAG tamper")
	}
}

func TestBootTimeline(t *testing.T) {
	total := TotalBootSeconds()
	if math.Abs(total-5.1) > 0.01 {
		t.Fatalf("boot timeline sums to %.2f s, want 5.1 s (paper §6.1)", total)
	}
	// ShEF boot must beat VM boot and be comparable to F1 bitstream load.
	if total >= VMBootSeconds {
		t.Fatal("secure boot slower than VM boot")
	}
	for _, s := range Timeline {
		if s.Seconds <= 0 {
			t.Fatalf("stage %s has nonpositive duration", s.Name)
		}
	}
}
