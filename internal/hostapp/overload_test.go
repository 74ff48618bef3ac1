package hostapp

import (
	"errors"
	"math/big"
	"net"
	"testing"
	"time"

	"shef/internal/attest"
	"shef/internal/crypto/rsax"
)

// overloadServer builds a minimal vendor server (CA only — registration
// is a complete request/response without a bitstream catalogue) with the
// given admission bounds, and returns it serving.
func overloadServer(t testing.TB, cfg ServerConfig) (*VendorServer, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewVendorServerWith(&attest.Vendor{CA: attest.NewCA()}, ln, cfg)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(nil) }()
	return srv, serveDone
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testDeviceKey() *rsax.PublicKey {
	return &rsax.PublicKey{N: big.NewInt(0).SetBytes([]byte("overload-test-device-key")), E: 65537}
}

// TestServerOverloadSheds saturates MaxSessions and the wait queue, then
// asserts further connections are shed with the busy/retry-after response
// (surfacing as attest.ErrBusy), that ServerStats counts every shed, and
// that the server serves normally again once the load drains.
func TestServerOverloadSheds(t *testing.T) {
	const maxSessions, maxQueue = 2, 2
	srv, _ := overloadServer(t, ServerConfig{
		MaxSessions: maxSessions,
		MaxQueue:    maxQueue,
		RetryAfter:  5 * time.Millisecond,
	})
	defer srv.Shutdown(time.Second)

	// Occupy every session slot with connections that never send a
	// request — HandleOwner blocks reading, pinning the slot.
	var held []net.Conn
	for i := 0; i < maxSessions; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, conn)
	}
	waitFor(t, "slots to fill", func() bool { return srv.Stats().Active == maxSessions })

	// Fill the wait queue the same way.
	var queued []net.Conn
	for i := 0; i < maxQueue; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, conn)
	}
	waitFor(t, "queue to fill", func() bool { return srv.Stats().Queued == maxQueue })

	// Every further connection must be shed with the busy response.
	const extra = 4
	for i := 0; i < extra; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		err = attest.RegisterDevice(conn, "shed-device", testDeviceKey())
		conn.Close()
		if !errors.Is(err, attest.ErrBusy) {
			t.Fatalf("connection %d past the queue: got %v, want ErrBusy", i, err)
		}
	}
	if st := srv.Stats(); st.Shed != extra {
		t.Fatalf("shed = %d, want %d (stats %+v)", st.Shed, extra, st)
	}

	// Drain the synthetic load; the queued connections get slots, fail
	// their (empty) protocol exchange, and free everything up.
	for _, conn := range append(held, queued...) {
		conn.Close()
	}
	waitFor(t, "load to drain", func() bool {
		st := srv.Stats()
		return st.Active == 0 && st.Queued == 0
	})

	// Back to normal service: a real registration round-trips.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := attest.RegisterDevice(conn, "recovered-device", testDeviceKey()); err != nil {
		t.Fatalf("registration after drain: %v", err)
	}
	if st := srv.Stats(); st.Served != 1 {
		t.Fatalf("served = %d, want 1 (stats %+v)", st.Served, st)
	}
}

// TestServerShedAlwaysErrBusy pins the client-visible shed contract: with
// the only slot held and no queue, every one of many back-to-back
// connections must surface as attest.ErrBusy — never as a transport error
// such as `write: broken pipe` or `connection reset`, which is what a
// client sees when the server closes on its unread request.
func TestServerShedAlwaysErrBusy(t *testing.T) {
	srv, _ := overloadServer(t, ServerConfig{MaxSessions: 1, RetryAfter: time.Millisecond})
	defer srv.Shutdown(time.Second)
	held, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	waitFor(t, "slot to fill", func() bool { return srv.Stats().Active == 1 })

	const attempts = 200
	failures := 0
	for i := 0; i < attempts; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		err = attest.RegisterDevice(conn, "shed-device", testDeviceKey())
		conn.Close()
		if !errors.Is(err, attest.ErrBusy) {
			failures++
			t.Errorf("attempt %d: got %v, want ErrBusy", i, err)
		}
	}
	if failures > 0 {
		t.Fatalf("%d of %d shed connections did not surface as ErrBusy", failures, attempts)
	}
	waitFor(t, "every shed to be counted", func() bool { return srv.Stats().Shed == attempts })
}

// TestShutdownReleasesQueuedAdmissions is the drain-race regression test:
// connections waiting in the admission queue when Shutdown begins must
// abort through the shutdown gate — not be admitted behind the drain's
// force pass and leak as running-but-never-released sessions (which would
// deadlock the second wg.Wait forever).
func TestShutdownReleasesQueuedAdmissions(t *testing.T) {
	srv, serveDone := overloadServer(t, ServerConfig{MaxSessions: 1, MaxQueue: 8})

	held, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "slot to fill", func() bool { return srv.Stats().Active == 1 })
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	waitFor(t, "queue to fill", func() bool { return srv.Stats().Queued == 8 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(5 * time.Second) }()
	// The in-flight session ends mid-drain; everything queued must abort.
	time.Sleep(50 * time.Millisecond)
	held.Close()

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung — queued admission leaked past the drain")
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if st := srv.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("sessions leaked across shutdown: %+v", st)
	}
}
