package pmacx

import (
	"encoding/hex"
	"testing"
)

// TestGoldenVector pins PMAC's output on a message whose final block is
// full (the L/x offset branch). The tag was recorded from two independent
// AES implementations that agreed on it.
func TestGoldenVector(t *testing.T) {
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	msg := make([]byte, 64)
	for i := range msg {
		msg[i] = byte(i*13 + 1)
	}
	const want = "9570e91642c4a905eea7f410b9ebd905"
	tag := newMAC(t, key).Sum(msg)
	if got := hex.EncodeToString(tag[:]); got != want {
		t.Errorf("PMAC tag %s, want %s", got, want)
	}
}
