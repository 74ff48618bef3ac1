package hostapp

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"shef/internal/accel"
)

// TestTwoSimultaneousOwnerSessions runs two complete Data Owner builds —
// registration, bitstream fetch, host-proxied attestation, provisioning,
// and a shielded execution — against one VendorServer at the same time:
// the shefd serving topology under -race.
func TestTwoSimultaneousOwnerSessions(t *testing.T) {
	opts := Options{Design: "bitcoin", Params: map[string]string{"difficulty": "8"}}
	vendor, product, err := BuildVendor(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewVendorServerWith(vendor, ln, ServerConfig{})
	go srv.Serve(nil)
	defer srv.Shutdown(time.Second)

	dial := DialFunc(func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", srv.Addr().String())
	})

	const owners = 2
	var wg sync.WaitGroup
	errs := make([]error, owners)
	for i := 0; i < owners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.Serial = "f1-sim-owner" + string(rune('A'+i))
			p, err := BuildAgainstVendor(o, product, dial, nil)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = p.Run(int64(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("owner %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.Served == 0 || st.Failed != 0 {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestServerGracefulShutdownDrains starts a session, shuts the server
// down, and checks the in-flight session still completes inside the drain
// window.
func TestServerGracefulShutdownDrains(t *testing.T) {
	opts := Options{Design: "bitcoin", Params: map[string]string{"difficulty": "8"}}
	vendor, product, err := BuildVendor(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewVendorServerWith(vendor, ln, ServerConfig{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(nil) }()

	dial := DialFunc(func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", srv.Addr().String())
	})
	buildDone := make(chan error, 1)
	go func() {
		_, err := BuildAgainstVendor(opts, product, dial, nil)
		buildDone <- err
	}()
	// Let the build open its first connection, then begin shutdown.
	time.Sleep(50 * time.Millisecond)
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// The build may have lost its *next* dial (listener closed) — that is
	// expected during shutdown — but it must not hang.
	select {
	case <-buildDone:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight build hung across shutdown")
	}
}

// TestAccelVariantsStillRegistered guards the designs the serving tests
// rely on (a rename would fail the tests in this file confusingly).
func TestAccelVariantsStillRegistered(t *testing.T) {
	found := map[string]bool{}
	for _, d := range accel.Designs() {
		found[d] = true
	}
	for _, want := range []string{"vecadd", "bitcoin"} {
		if !found[want] {
			t.Fatalf("design %q missing from registry", want)
		}
	}
}

// TestPlatformRunsUseStreamingDataPath asserts the served workloads
// actually ride the Shield's pipelined burst engine: a provisioned vecadd
// run must report streamed chunks batched into stream windows.
func TestPlatformRunsUseStreamingDataPath(t *testing.T) {
	plat, err := Build(Options{
		Design: "vecadd",
		Params: map[string]string{"bytes": "65536"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plat.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Regions) == 0 {
		t.Fatal("no region report")
	}
	var streamed, windows uint64
	for _, r := range res.Report.Regions {
		streamed += r.Streamed
		windows += r.StreamWindows
	}
	if streamed == 0 || windows == 0 {
		t.Fatalf("platform run moved no streamed chunks (streamed=%d windows=%d)", streamed, windows)
	}
	if windows >= streamed {
		t.Fatalf("windows (%d) should batch multiple chunks (%d)", windows, streamed)
	}
}
