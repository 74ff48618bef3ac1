package attest

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/big"
	"net"
	"runtime"
	"testing"
	"time"

	"shef/internal/crypto/aead"
)

// These tests exercise the protocol endpoints against malformed and
// adversarial wire input: nothing may panic, and every malformation must
// be rejected.

func TestWireRejectsOversizedHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GB claimed length
	var v challenge
	if err := readMsg(&buf, &v); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestWireRejectsTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 100})
	buf.WriteString("short")
	var v challenge
	if err := readMsg(&buf, &v); err == nil {
		t.Fatal("truncated message accepted")
	}
}

// TestReadMsgAllocTracksReceivedBytes: a header declaring a 1 MiB body,
// then 10 bytes and EOF, must not make readMsg allocate the declared
// length. The smallest of three runs is taken, so an unrelated
// allocation elsewhere in the process cannot fail the test.
func TestReadMsgAllocTracksReceivedBytes(t *testing.T) {
	msg := make([]byte, 4+10)
	binary.BigEndian.PutUint32(msg, maxMsgBytes)
	grew := uint64(math.MaxUint64)
	for range 3 {
		r := bytes.NewReader(msg)
		var v challenge
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readMsg(r, &v)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("truncated 1 MiB message accepted")
		}
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if grew >= 128<<10 {
		t.Fatalf("readMsg allocated %d bytes for 10 received; want < 128 KiB", grew)
	}
}

func TestWireRejectsGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	writeMsg(&buf, "just a string")
	var v challenge
	if err := readMsg(&buf, &v); err == nil {
		t.Fatal("type-mismatched message accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("{{{")
	if err := readMsg(&buf, &v); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestKernelRejectsBadChallenge: short nonces and invalid DH elements are
// refused before any signing happens.
func TestKernelRejectsBadChallenge(t *testing.T) {
	w := getWorld(t)
	cases := []challenge{
		{Nonce: []byte("short"), VerifPub: big.NewInt(4).Bytes()},
		{Nonce: bytes.Repeat([]byte{1}, 32), VerifPub: []byte{1}}, // identity element
		{Nonce: bytes.Repeat([]byte{1}, 32), VerifPub: nil},
	}
	for i, ch := range cases {
		vc, kc := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			_, err := ServeKernel(kc, w.kernel, w.enc)
			errc <- err
			kc.Close()
		}()
		if err := writeMsg(vc, ch); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if err == nil {
				t.Errorf("case %d: kernel accepted a bad challenge", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("case %d: kernel hung", i)
		}
		vc.Close()
	}
}

// TestVendorSurvivesKernelDisconnect: a kernel that hangs up mid-protocol
// yields an error, not a hang or panic.
func TestVendorSurvivesKernelDisconnect(t *testing.T) {
	w := getWorld(t)
	vc, kc := net.Pipe()
	go func() {
		var ch challenge
		readMsg(kc, &ch)
		kc.Close() // hang up before sending the report
	}()
	done := make(chan error, 1)
	go func() {
		_, err := w.vendor.RunVendor(vc, "vecadd")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("vendor succeeded against a disconnected kernel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("vendor hung on disconnect")
	}
	vc.Close()
}

// TestVendorRejectsGarbageReport: a random blob in place of the report
// message fails cleanly.
func TestVendorRejectsGarbageReport(t *testing.T) {
	w := getWorld(t)
	vc, kc := net.Pipe()
	go func() {
		var ch challenge
		readMsg(kc, &ch)
		writeMsg(kc, reportMsg{Report: Report{
			Nonce:      ch.Nonce,
			AttestPub:  []byte{0},
			KernelHash: make([]byte, 32),
		}})
		var verdict vendorError
		readMsg(kc, &verdict)
		kc.Close()
	}()
	if _, err := w.vendor.RunVendor(vc, "vecadd"); err == nil {
		t.Fatal("garbage report accepted")
	}
	vc.Close()
}

// TestSessionSealTamper: the host relays the step-6 key delivery, and the
// kernel rejects it after any change on the way: a flipped bit in the body
// or the tag, a truncated blob, or a blob sealed under another key.
func TestSessionSealTamper(t *testing.T) {
	w := getWorld(t)
	relay := func(tamper func(sealed []byte) []byte) ([]byte, error) {
		vc, hv := net.Pipe() // vendor ↔ host
		hk, kc := net.Pipe() // host ↔ kernel
		// Kernel → vendor passes untouched.
		go func() {
			io.Copy(hv, hk)
			hv.Close()
		}()
		// Vendor → kernel: challenge, verdict, then the key delivery.
		go func() {
			var ch challenge
			var verdict vendorError
			var d keyDelivery
			if readMsg(hv, &ch) != nil || writeMsg(hk, ch) != nil ||
				readMsg(hv, &verdict) != nil || writeMsg(hk, verdict) != nil ||
				readMsg(hv, &d) != nil {
				hk.Close()
				return
			}
			d.Sealed = tamper(d.Sealed)
			writeMsg(hk, d)
		}()
		done := make(chan struct{})
		var key []byte
		var kerr error
		go func() {
			defer close(done)
			key, kerr = ServeKernel(kc, w.kernel, w.enc)
			kc.Close()
		}()
		if _, err := w.vendor.RunVendor(vc, "vecadd"); err != nil {
			t.Fatalf("vendor: %v", err)
		}
		vc.Close()
		<-done
		return key, kerr
	}
	if key, err := relay(func(b []byte) []byte { return b }); err != nil || !bytes.Equal(key, w.bitKey) {
		t.Fatalf("clean payload rejected: %v", err)
	}
	if _, err := relay(func(b []byte) []byte { b[len(b)/2] ^= 1; return b }); err == nil {
		t.Fatal("tampered session payload accepted")
	}
	if _, err := relay(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }); err == nil {
		t.Fatal("tampered session tag accepted")
	}
	if _, err := relay(func(b []byte) []byte { return b[:len(b)-1] }); err == nil {
		t.Fatal("truncated session payload accepted")
	}
	other := bytes.Repeat([]byte{8}, 32)
	if _, err := relay(func([]byte) []byte {
		forged, _ := aead.Seal(other, w.bitKey)
		return forged
	}); err == nil {
		t.Fatal("session payload opened under wrong key")
	}
}

// TestCAISolation: looking up before registering fails; re-registration
// overwrites (manufacturer key rotation).
func TestCARegistry(t *testing.T) {
	ca := NewCA()
	if _, err := ca.Lookup("x"); err == nil {
		t.Fatal("unknown device resolved")
	}
	pub1, _ := rsaxGenerate(t)
	ca.Register("x", pub1)
	got, err := ca.Lookup("x")
	if err != nil || got.N.Cmp(pub1.N) != 0 {
		t.Fatal("lookup mismatch")
	}
}
