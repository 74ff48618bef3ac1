// Package boot implements ShEF's secure boot chain (paper §3 steps 1-2 and
// 6-7, §4 "Secure Boot"): Manufacturer key provisioning, the BootROM →
// SPB-firmware → Security-Kernel measured boot, and the derivation of the
// device- and kernel-bound Attestation Key.
//
// The chain reproduces the paper's dataflow exactly:
//
//	e-fuse AES key ──decrypts──► SPB firmware (carries DeviceKey_priv)
//	firmware ──hashes──► Security Kernel image ──► H(SecKrnl)
//	seed = Sign_DeviceKey(H(SecKrnl)) ──► AttestKey pair (deterministic)
//	σ_SecKrnl = Sign_DeviceKey(H(SecKrnl) ‖ AttestKey_pub)
//
// The Security Kernel itself contains no secrets and never sees the device
// keys; it only receives the Attestation Key and certificate (paper §3:
// "preventing attackers from leaking the device keys via an illegitimate
// Security Kernel").
package boot

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"shef/internal/crypto/aead"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/rsax"
	"shef/internal/crypto/schnorr"
	"shef/internal/fpga"
)

// Manufacturer is the FPGA maker: the only party that ever has the device
// keys in the clear, inside its secure facility.
type Manufacturer struct {
	// Group is the discrete-log group for attestation keys.
	Group *modp.Group
	// KeyBits is the RSA modulus size for device keys.
	KeyBits int
}

// firmwareImage is the plaintext content of the SPB firmware: the private
// device key, serialised. It exists only inside the sealed firmware blob
// and SPB-internal memory.
type firmwareImage struct {
	N *big.Int `json:"n"`
	E int      `json:"e"`
	D *big.Int `json:"d"`
	P *big.Int `json:"p"`
	Q *big.Int `json:"q"`
}

// ProvisionedDevice is what leaves the factory: the fused device plus the
// encrypted firmware that ships on its boot medium, and the public device
// key the Manufacturer registers with a certificate authority.
type ProvisionedDevice struct {
	Device       *fpga.Device
	FirmwareBlob []byte
	DevicePublic *rsax.PublicKey
}

// Provision burns keys into a fresh device (paper §3 steps 1-2): an AES
// device key into the e-fuses (PUF-wrapped), and the RSA private device
// key into AES-encrypted firmware.
func (m *Manufacturer) Provision(dev *fpga.Device) (*ProvisionedDevice, error) {
	if m.KeyBits == 0 {
		m.KeyBits = 2048
	}
	aesKey := make([]byte, 32)
	if _, err := rand.Read(aesKey); err != nil {
		return nil, fmt.Errorf("boot: sampling device AES key: %w", err)
	}
	deviceKey, err := rsax.GenerateKey(nil, m.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("boot: generating device key pair: %w", err)
	}
	wrapped, err := fpga.WrapKeyForEFuse(dev.PUF(), aesKey)
	if err != nil {
		return nil, err
	}
	if err := dev.BurnEFuse(wrapped, true); err != nil {
		return nil, err
	}
	fw, err := json.Marshal(firmwareImage{
		N: deviceKey.N, E: deviceKey.E, D: deviceKey.D, P: deviceKey.P, Q: deviceKey.Q,
	})
	if err != nil {
		return nil, err
	}
	blob, err := aead.Seal(aesKey, fw)
	if err != nil {
		return nil, err
	}
	return &ProvisionedDevice{
		Device:       dev,
		FirmwareBlob: blob,
		DevicePublic: &deviceKey.PublicKey,
	}, nil
}

// KernelImage is a Security Kernel binary. Its hash is the measurement
// that attestation reports; IP Vendors maintain an allowlist of known-good
// hashes (paper §4, Remote Attestation).
type KernelImage struct {
	Name    string
	Version string
	Code    []byte
}

// Hash is H(SecKrnl).
func (k KernelImage) Hash() [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(k.Name))
	h.Write([]byte{0})
	h.Write([]byte(k.Version))
	h.Write([]byte{0})
	h.Write(k.Code)
	return [sha256.Size]byte(h.Sum(nil))
}

// ReferenceKernel is the Security Kernel image this repository ships; its
// hash is what IP Vendors allowlist.
var ReferenceKernel = KernelImage{
	Name:    "shef-security-kernel",
	Version: "1.0.0",
	Code:    []byte("shef security kernel reference build: attest, mediate fabric, monitor ports"),
}

// SecurityKernel is the booted kernel running on the dedicated processor.
// It holds the Attestation Key (delivered by the SPB firmware through
// private on-chip memory) and mediates all fabric access.
type SecurityKernel struct {
	dev        *fpga.Device
	group      *modp.Group
	attestKey  *schnorr.PrivateKey
	certSK     []byte // σ_SecKrnl: device-key signature binding kernel hash and attest key
	kernelHash [sha256.Size]byte
}

// certMessage is the byte string the device key signs to certify the
// kernel and its attestation key.
func certMessage(kernelHash [sha256.Size]byte, attestPub *schnorr.PublicKey) []byte {
	msg := append([]byte("shef/seckrnl-cert:"), kernelHash[:]...)
	return append(msg, attestPub.Bytes()...)
}

// Boot runs the measured boot chain on a provisioned device: BootROM
// decrypts the firmware via the SPB, the firmware hashes the kernel image,
// derives the Attestation Key, certifies it, and starts the kernel.
func Boot(pd *ProvisionedDevice, kernel KernelImage, group *modp.Group) (*SecurityKernel, error) {
	if group == nil {
		group = modp.Group14
	}
	spb := fpga.NewSPB(pd.Device)
	fwPlain, err := spb.DecryptBlob(pd.FirmwareBlob)
	if err != nil {
		return nil, fmt.Errorf("boot: BootROM firmware decryption failed: %w", err)
	}
	var fw firmwareImage
	if err := json.Unmarshal(fwPlain, &fw); err != nil {
		return nil, fmt.Errorf("boot: firmware image corrupt: %w", err)
	}
	deviceKey := &rsax.PrivateKey{
		PublicKey: rsax.PublicKey{N: fw.N, E: fw.E},
		D:         fw.D, P: fw.P, Q: fw.Q,
	}
	kh := kernel.Hash()
	// seed = Sign_DeviceKey(H(SecKrnl)): binds the attestation key to this
	// device (only it can produce the signature) and this kernel binary.
	seed, err := deviceKey.Sign(append([]byte("shef/attest-seed:"), kh[:]...))
	if err != nil {
		return nil, err
	}
	attestKey := schnorr.KeyFromSeed(group, seed)
	cert, err := deviceKey.Sign(certMessage(kh, &attestKey.PublicKey))
	if err != nil {
		return nil, err
	}
	return &SecurityKernel{
		dev:        pd.Device,
		group:      group,
		attestKey:  attestKey,
		certSK:     cert,
		kernelHash: kh,
	}, nil
}

// VerifyKernelCert checks σ_SecKrnl against a device public key obtained
// from the Manufacturer's certificate authority. IP Vendors run this
// during attestation (Figure 3 step 5).
func VerifyKernelCert(devicePub *rsax.PublicKey, kernelHash [sha256.Size]byte,
	attestPub *schnorr.PublicKey, cert []byte) bool {
	return rsax.Verify(devicePub, certMessage(kernelHash, attestPub), cert)
}

// AttestKey exposes the kernel's attestation key pair. The private half
// never leaves the kernel; this accessor exists for the attestation
// endpoint in the same trust domain.
func (k *SecurityKernel) AttestKey() *schnorr.PrivateKey { return k.attestKey }

// KernelCert returns σ_SecKrnl.
func (k *SecurityKernel) KernelCert() []byte { return append([]byte(nil), k.certSK...) }

// KernelHash returns H(SecKrnl).
func (k *SecurityKernel) KernelHash() [sha256.Size]byte { return k.kernelHash }

// Group returns the attestation group.
func (k *SecurityKernel) Group() *modp.Group { return k.group }

// Device returns the FPGA the kernel controls.
func (k *SecurityKernel) Device() *fpga.Device { return k.dev }

// MonitorPorts performs one runtime scan of the programming and debug
// ports (paper §3 step 9). Detected tampering clears the user design: the
// accelerator must not keep executing next to an open backdoor.
func (k *SecurityKernel) MonitorPorts() []fpga.TamperEvent {
	events := k.dev.ScanPorts()
	if len(events) > 0 {
		k.dev.ClearPartial()
	}
	return events
}

// ErrNoShell reports partial programming before the Shell is resident.
var ErrNoShell = errors.New("boot: shell must be loaded before the accelerator")
