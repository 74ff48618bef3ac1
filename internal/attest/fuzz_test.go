package attest

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// ownerStream is an in-memory owner connection: the vendor reads the
// fixed bytes in and writes its frames to out.
type ownerStream struct {
	io.Reader
	io.Writer
}

// recordProvision runs one genuine provision through HandleOwner and
// returns what the owner side sent: the request, then the Security
// Kernel's report.
func recordProvision(tb testing.TB, w *world) []byte {
	tb.Helper()
	oc, vc := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- w.vendor.HandleOwner(vc)
		vc.Close()
	}()
	var sent bytes.Buffer
	_, _, _, err := ProvisionViaHost(ownerStream{oc, io.MultiWriter(oc, &sent)}, "vecadd", w.kernel.Group(), w.kernel, w.enc)
	oc.Close()
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-done; err != nil {
		tb.Fatal(err)
	}
	return sent.Bytes()
}

// handleOwnerDeadline bounds one HandleOwner call on a fuzz input. The
// input ends in EOF, so every read returns; a call still running after
// this is looping.
const handleOwnerDeadline = 10 * time.Second

// vendorFrame is the part of any vendor frame the oracle reads.
type vendorFrame struct {
	OK     bool   `json:"ok"`
	Error  string `json:"error"`
	Sealed []byte `json:"sealed"`
}

// FuzzHandleOwner feeds arbitrary bytes, as the whole owner-side stream
// of one connection, to Vendor.HandleOwner on a vendor with one product
// and one registered device. Each input gets a fresh CA, so what a
// register input did cannot carry into the next. The oracle: HandleOwner
// returns within handleOwnerDeadline without panicking; an unknown
// request kind gets exactly one refusal that names it; and a provision
// never draws a frame with ok:true or a key delivery, because no fixed
// byte stream can answer the vendor's fresh nonce and ephemeral key with
// the device's signatures. The seed corpus holds each request kind, the
// empty kind, the retired "zone-create", truncated and oversize headers,
// and a genuine exchange recorded with an earlier fixture, whose device
// key differs from this run's. f.Add adds one recorded with this run's
// device, which a vendor that let a replay through would accept.
func FuzzHandleOwner(f *testing.F) {
	w := getWorld(f)
	f.Add(recordProvision(f, w))
	serial := w.pd.Device.Serial
	f.Fuzz(func(t *testing.T, stream []byte) {
		ca := NewCA()
		ca.Register(serial, w.pd.DevicePublic)
		v := &Vendor{CA: ca, KernelAllowlist: w.vendor.KernelAllowlist, Bitstreams: w.vendor.Bitstreams}
		var out bytes.Buffer
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = v.HandleOwner(ownerStream{bytes.NewReader(stream), &out})
		}()
		deadline := time.NewTimer(handleOwnerDeadline)
		defer deadline.Stop()
		select {
		case <-done:
		case <-deadline.C:
			t.Fatalf("HandleOwner still running after %s", handleOwnerDeadline)
		}

		var frames []vendorFrame
		for r := bytes.NewReader(out.Bytes()); r.Len() > 0; {
			var fr vendorFrame
			if err := readMsg(r, &fr); err != nil {
				t.Fatalf("vendor wrote a malformed frame: %v", err)
			}
			frames = append(frames, fr)
		}
		var req OwnerRequest
		if readMsg(bytes.NewReader(stream), &req) != nil {
			if len(frames) != 0 {
				t.Fatalf("unreadable request answered with %d frame(s)", len(frames))
			}
			return
		}
		switch req.Kind {
		case KindRegister, KindFetch:
		case KindProvision, "":
			for i, fr := range frames {
				if fr.OK || fr.Sealed != nil {
					t.Fatalf("provision from a fixed stream accepted: frame %d of %d is %+v", i, len(frames), fr)
				}
			}
		default:
			if len(frames) != 1 || frames[0].OK || !strings.Contains(frames[0].Error, "unknown request kind") {
				t.Fatalf("kind %q answered with %+v, want one unknown-kind refusal", req.Kind, frames)
			}
		}
	})
}
