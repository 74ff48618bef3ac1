package fpga

import (
	"crypto/aes"
	"errors"
	"fmt"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
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
	kek := s.dev.PUF().Response(pufChallenge)
	if len(payload) <= hmacx.TagSize {
		return nil, errors.New("fpga: PUF-wrapped e-fuse payload too short")
	}
	ct := payload[:len(payload)-hmacx.TagSize]
	var tag [hmacx.TagSize]byte
	copy(tag[:], payload[len(payload)-hmacx.TagSize:])
	if !hmacx.Verify(kek, ct, tag) {
		return nil, errors.New("fpga: PUF unwrap failed (fuses corrupted or wrong device)")
	}
	key := make([]byte, len(ct))
	cipher, err := aes.NewCipher(kek)
	if err != nil {
		return nil, err
	}
	var iv [aesx.IVSize]byte
	aesx.CTR(cipher, iv, key, ct)
	return key, nil
}

// WrapKeyForEFuse is the Manufacturer-side companion: it produces the
// PUF-wrapped e-fuse payload for key. It must run with physical access to
// the device (in the secure facility), which the model expresses by
// requiring the device's PUF.
func WrapKeyForEFuse(puf *PUF, key []byte) []byte {
	kek := puf.Response(pufChallenge)
	ct := make([]byte, len(key))
	cipher, err := aes.NewCipher(kek)
	if err != nil {
		panic(fmt.Sprintf("fpga: PUF response not a valid AES key: %v", err))
	}
	var iv [aesx.IVSize]byte
	aesx.CTR(cipher, iv, ct, key)
	tag := hmacx.Tag(kek, ct)
	return append(ct, tag[:]...)
}

// DecryptBlob decrypts and authenticates a firmware-style blob (ciphertext
// followed by a 16-byte HMAC tag) under the AES device key. BootROM uses
// this to load the SPB firmware (paper §4, Secure Boot).
func (s *SPB) DecryptBlob(blob []byte) ([]byte, error) {
	key, err := s.DeviceAESKey()
	if err != nil {
		return nil, err
	}
	return OpenBlob(key, blob)
}

// SealBlob is the offline companion to DecryptBlob: encrypt-then-MAC under
// key. The Manufacturer seals the SPB firmware with the AES device key.
func SealBlob(key, plaintext []byte) ([]byte, error) {
	cipher, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	ct := make([]byte, len(plaintext))
	var iv [aesx.IVSize]byte
	aesx.CTR(cipher, iv, ct, plaintext)
	tag := hmacx.Tag(key, ct)
	return append(ct, tag[:]...), nil
}

// OpenBlob reverses SealBlob.
func OpenBlob(key, blob []byte) ([]byte, error) {
	if len(blob) < hmacx.TagSize {
		return nil, errors.New("fpga: sealed blob too short")
	}
	ct := blob[:len(blob)-hmacx.TagSize]
	var tag [hmacx.TagSize]byte
	copy(tag[:], blob[len(blob)-hmacx.TagSize:])
	if !hmacx.Verify(key, ct, tag) {
		return nil, errors.New("fpga: blob authentication failed")
	}
	cipher, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	pt := make([]byte, len(ct))
	var iv [aesx.IVSize]byte
	aesx.CTR(cipher, iv, pt, ct)
	return pt, nil
}
