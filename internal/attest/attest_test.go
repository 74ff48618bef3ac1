package attest

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"shef/internal/bitstream"
	"shef/internal/boot"
	"shef/internal/crypto/aesx"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/rsax"
	"shef/internal/crypto/schnorr"
	"shef/internal/fpga"
	"shef/internal/perf"
	"shef/internal/shield"
)

// world is a full attestation fixture: a provisioned, booted device and a
// vendor distributing one bitstream.
type world struct {
	pd        *boot.ProvisionedDevice
	kernel    *boot.SecurityKernel
	vendor    *Vendor
	enc       *bitstream.Encrypted
	bitKey    []byte
	shieldKey *schnorr.PrivateKey
}

var (
	worldOnce sync.Once
	theWorld  *world
	worldErr  error
)

func buildWorld() (*world, error) {
	dev := fpga.New(fpga.VU9P, "f1-attest", perf.Default(), 1<<20)
	m := &boot.Manufacturer{Group: modp.TestGroup, KeyBits: 1024}
	pd, err := m.Provision(dev)
	if err != nil {
		return nil, err
	}
	kernel, err := boot.Boot(pd, boot.ReferenceKernel, modp.TestGroup)
	if err != nil {
		return nil, err
	}
	shieldKey, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		return nil, err
	}
	man := &bitstream.Manifest{
		Design: "vecadd", Version: "1",
		Shield: shield.Config{Regions: []shield.RegionConfig{{
			Name: "r", Base: 0, Size: 4096, ChunkSize: 512,
			AESEngines: 1, SBox: aesx.SBox4x, KeySize: aesx.AES128, MAC: shield.HMAC,
		}}},
		ShieldPrivKey: shieldKey.X.Bytes(),
		Resources:     fpga.Resources{LUT: 5000},
	}
	bitKey := bytes.Repeat([]byte{0x42}, 32)
	enc, err := bitstream.Compile("vecadd-afi", man, bitKey)
	if err != nil {
		return nil, err
	}
	ca := NewCA()
	ca.Register(dev.Serial, pd.DevicePublic)
	vendor := &Vendor{
		CA:              ca,
		KernelAllowlist: [][32]byte{boot.ReferenceKernel.Hash()},
		Bitstreams: map[string]*Product{
			"vecadd": {Encrypted: enc, BitstreamKey: bitKey, ShieldPub: &shieldKey.PublicKey},
		},
	}
	return &world{pd: pd, kernel: kernel, vendor: vendor, enc: enc, bitKey: bitKey, shieldKey: shieldKey}, nil
}

func getWorld(t testing.TB) *world {
	t.Helper()
	worldOnce.Do(func() { theWorld, worldErr = buildWorld() })
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return theWorld
}

// runExchange wires vendor and kernel over an in-memory pipe and runs one
// attestation, returning both outcomes.
func runExchange(t *testing.T, w *world, product string, enc *bitstream.Encrypted) (vres *Result, verr error, key []byte, kerr error) {
	t.Helper()
	vc, kc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		key, kerr = ServeKernel(kc, w.kernel, enc)
		kc.Close()
	}()
	vres, verr = w.vendor.RunVendor(vc, product)
	vc.Close()
	<-done
	return
}

func TestAttestationSuccess(t *testing.T) {
	w := getWorld(t)
	vres, verr, key, kerr := runExchange(t, w, "vecadd", w.enc)
	if verr != nil {
		t.Fatalf("vendor: %v", verr)
	}
	if kerr != nil {
		t.Fatalf("kernel: %v", kerr)
	}
	if !bytes.Equal(key, w.bitKey) {
		t.Fatal("kernel received wrong bitstream key")
	}
	if vres.Report.DeviceSerial != "f1-attest" {
		t.Fatal("report carries wrong serial")
	}
	// The delivered key actually decrypts the bitstream.
	if _, err := bitstream.Decrypt(w.enc, key); err != nil {
		t.Fatalf("delivered key does not decrypt the bitstream: %v", err)
	}
}

func TestAttestationRejectsWrongBitstream(t *testing.T) {
	w := getWorld(t)
	// Kernel holds a different (e.g. trojaned) image than the vendor ships.
	other := *w.enc
	other.Blob = append([]byte(nil), w.enc.Blob...)
	other.Blob[0] ^= 1
	_, verr, _, kerr := runExchange(t, w, "vecadd", &other)
	if verr == nil {
		t.Fatal("vendor accepted a mismatched bitstream hash")
	}
	if kerr == nil {
		t.Fatal("kernel got a key despite rejection")
	}
}

func TestAttestationRejectsUnknownDevice(t *testing.T) {
	w := getWorld(t)
	// A device whose key was never registered with the CA.
	dev := fpga.New(fpga.VU9P, "rogue-device", perf.Default(), 1<<20)
	m := &boot.Manufacturer{Group: modp.TestGroup, KeyBits: 1024}
	pd, err := m.Provision(dev)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := boot.Boot(pd, boot.ReferenceKernel, modp.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	vc, kc := net.Pipe()
	go func() {
		ServeKernel(kc, rogue, w.enc)
		kc.Close()
	}()
	_, verr := w.vendor.RunVendor(vc, "vecadd")
	vc.Close()
	if verr == nil {
		t.Fatal("vendor attested an unregistered device")
	}
}

func TestAttestationRejectsUnknownKernel(t *testing.T) {
	w := getWorld(t)
	evil := boot.ReferenceKernel
	evil.Code = append([]byte("evil"), boot.ReferenceKernel.Code...)
	k2, err := boot.Boot(w.pd, evil, modp.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	vc, kc := net.Pipe()
	go func() {
		ServeKernel(kc, k2, w.enc)
		kc.Close()
	}()
	_, verr := w.vendor.RunVendor(vc, "vecadd")
	vc.Close()
	if verr == nil {
		t.Fatal("vendor accepted a kernel hash outside the allowlist")
	}
}

// TestReplayedReportRejected: a man in the middle replaying a previous
// (valid) report fails the nonce check.
func TestReplayedReportRejected(t *testing.T) {
	w := getWorld(t)
	// First, capture a legitimate report by recording the kernel's answer.
	var recorded reportMsg
	vc, kc := net.Pipe()
	go func() {
		var ch challenge
		readMsg(kc, &ch)
		// Run the real kernel against this challenge via a nested pipe.
		ivc, ikc := net.Pipe()
		go func() {
			ServeKernel(ikc, w.kernel, w.enc)
			ikc.Close()
		}()
		// Forward the challenge, capture the report.
		writeMsg(ivc, ch)
		readMsg(ivc, &recorded)
		ivc.Close()
		writeMsg(kc, recorded) // deliver to this session (same nonce: fine)
		var verdict vendorError
		readMsg(kc, &verdict)
		if verdict.OK {
			var d keyDelivery
			readMsg(kc, &d) // drain the key delivery
		}
		kc.Close()
	}()
	if _, err := w.vendor.RunVendor(vc, "vecadd"); err != nil {
		t.Fatalf("pass-through session should succeed: %v", err)
	}
	vc.Close()

	// Now replay the recorded report against a fresh vendor session, which
	// uses a fresh nonce.
	vc2, kc2 := net.Pipe()
	go func() {
		var ch challenge
		readMsg(kc2, &ch) // ignore the fresh nonce
		writeMsg(kc2, recorded)
		var verdict vendorError
		readMsg(kc2, &verdict)
		kc2.Close()
	}()
	if _, err := w.vendor.RunVendor(vc2, "vecadd"); err == nil {
		t.Fatal("vendor accepted a replayed attestation report")
	}
	vc2.Close()
}

// TestForgedSessionKeyRejected: an attacker who substitutes their own DH
// key cannot produce σ_SessionKey under the attestation key.
func TestForgedSessionKeyRejected(t *testing.T) {
	w := getWorld(t)
	vc, kc := net.Pipe()
	go func() {
		var ch challenge
		readMsg(kc, &ch)
		// Forward to the real kernel but tamper with the session signature.
		ivc, ikc := net.Pipe()
		go func() {
			ServeKernel(ikc, w.kernel, w.enc)
			ikc.Close()
		}()
		writeMsg(ivc, ch)
		var rm reportMsg
		readMsg(ivc, &rm)
		ivc.Close()
		rm.SessionSigS[0] ^= 1
		writeMsg(kc, rm)
		var verdict vendorError
		readMsg(kc, &verdict)
		kc.Close()
	}()
	if _, err := w.vendor.RunVendor(vc, "vecadd"); err == nil {
		t.Fatal("vendor accepted a forged session-key certificate")
	}
	vc.Close()
}

func TestUnknownProduct(t *testing.T) {
	w := getWorld(t)
	vc, _ := net.Pipe()
	defer vc.Close()
	if _, err := w.vendor.RunVendor(vc, "nonexistent"); err == nil {
		t.Fatal("vendor served unknown product")
	}
}

func TestOwnerProvisioningFlow(t *testing.T) {
	w := getWorld(t)
	ownerV, ownerC := net.Pipe()
	go func() {
		w.vendor.HandleOwner(ownerV)
		ownerV.Close()
	}()
	resp, shieldPub, bitKey, err := ProvisionViaHost(ownerC, "vecadd", modp.TestGroup, w.kernel, w.enc)
	ownerC.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.DeviceSerial != "f1-attest" {
		t.Fatalf("bad response: %+v", resp)
	}
	if shieldPub.Y.Cmp(w.shieldKey.Y) != 0 {
		t.Fatal("owner received wrong shield key")
	}
	if !bytes.Equal(bitKey, w.bitKey) {
		t.Fatal("kernel received wrong bitstream key through the proxied flow")
	}
	wantHash := w.enc.Hash()
	if !bytes.Equal(resp.BitstreamHash, wantHash[:]) {
		t.Fatal("owner received wrong bitstream hash")
	}
}

func TestOwnerUnknownProduct(t *testing.T) {
	w := getWorld(t)
	ownerV, ownerC := net.Pipe()
	go func() {
		w.vendor.HandleOwner(ownerV)
		ownerV.Close()
	}()
	_, _, _, err := ProvisionViaHost(ownerC, "nope", modp.TestGroup, w.kernel, w.enc)
	ownerC.Close()
	if err == nil {
		t.Fatal("owner provisioned unknown product")
	}
}

func TestOwnerFetchAndRegister(t *testing.T) {
	w := getWorld(t)
	serve := func() net.Conn {
		ownerV, ownerC := net.Pipe()
		go func() {
			w.vendor.HandleOwner(ownerV)
			ownerV.Close()
		}()
		return ownerC
	}
	c := serve()
	enc, err := FetchBitstream(c, "vecadd")
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if enc.Hash() != w.enc.Hash() {
		t.Fatal("fetched bitstream differs")
	}
	c = serve()
	if _, err := FetchBitstream(c, "nope"); err == nil {
		t.Fatal("fetched unknown product")
	}
	c.Close()

	other, _ := rsaxGenerate(t)
	c = serve()
	if err := RegisterDevice(c, "new-device", other); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := w.vendor.CA.Lookup("new-device"); err != nil {
		t.Fatal("registration did not reach the CA")
	}
}

func TestWireMessageLimit(t *testing.T) {
	var buf bytes.Buffer
	big := struct{ X []byte }{X: make([]byte, maxMsgBytes)}
	if err := writeMsg(&buf, big); err == nil {
		t.Fatal("oversized message written")
	}
}

// rsaxGenerate creates a small RSA key for registration tests.
func rsaxGenerate(t *testing.T) (*rsax.PublicKey, *rsax.PrivateKey) {
	t.Helper()
	k, err := rsax.GenerateKey(nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return &k.PublicKey, k
}
