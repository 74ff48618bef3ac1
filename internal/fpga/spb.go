package fpga

import (
	"fmt"

	"shef/internal/crypto/aead"
)

// SPB is the Security Processor Block: the redundant embedded processor
// complex that executes BootROM and programmable firmware with exclusive
// access to the key fuses and cryptographic hardware (paper §2.2). All
// device-key operations in the boot chain flow through this type; nothing
// else in the repository can reach Device.readEFuse.
type SPB struct {
	dev *Device
}

// NewSPB attaches the security processor to its device.
func NewSPB(dev *Device) *SPB { return &SPB{dev: dev} }

// pufChallenge is the fixed challenge the SPB uses to regenerate the
// key-encryption key for PUF-wrapped fuses.
var pufChallenge = []byte("shef/efuse-kek")

// DeviceAESKey recovers the AES device key, unwrapping through the PUF if
// the Manufacturer burned a wrapped key. This is BootROM-resident logic.
func (s *SPB) DeviceAESKey() ([]byte, error) {
	payload, wrapped, err := s.dev.readEFuse()
	if err != nil {
		return nil, err
	}
	if !wrapped {
		return payload, nil
	}
	key, err := aead.Open(s.dev.PUF().Response(pufChallenge), payload)
	if err != nil {
		return nil, fmt.Errorf("fpga: PUF unwrap failed (fuses corrupted or wrong device): %w", err)
	}
	return key, nil
}

// WrapKeyForEFuse is the Manufacturer-side companion: it produces the
// PUF-wrapped e-fuse payload for key. It must run with physical access to
// the device (in the secure facility), which the model expresses by
// requiring the device's PUF.
func WrapKeyForEFuse(puf *PUF, key []byte) ([]byte, error) {
	return aead.Seal(puf.Response(pufChallenge), key)
}

// DecryptBlob authenticates and decrypts a firmware blob sealed with
// aead.Seal under the AES device key. BootROM uses this to load the SPB
// firmware (paper §4, Secure Boot).
func (s *SPB) DecryptBlob(blob []byte) ([]byte, error) {
	key, err := s.DeviceAESKey()
	if err != nil {
		return nil, err
	}
	fw, err := aead.Open(key, blob)
	if err != nil {
		return nil, fmt.Errorf("fpga: blob authentication failed: %w", err)
	}
	return fw, nil
}
