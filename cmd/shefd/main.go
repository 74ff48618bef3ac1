// Command shefd runs an IP Vendor attestation server: it compiles an
// accelerator product (design + Shield configuration) into an encrypted
// bitstream and serves Data Owner requests over TCP — bitstream fetch,
// device registration, and host-proxied remote attestation (paper
// Figure 3).
//
// Sessions are multiplexed: every connection is an isolated owner session
// on its own goroutine, so any number of Data Owners can fetch, register,
// and attest concurrently. SIGINT/SIGTERM trigger a graceful shutdown that
// drains in-flight attestations before exiting.
//
// Pair it with `shefctl -vendor <addr>` in another process to run the
// two-party workflow across a real network connection.
//
// Usage:
//
//	shefd -addr :9800 -design vecadd -params bytes=1048576
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shef/internal/accel"
	"shef/internal/hostapp"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9800", "listen address")
	design := flag.String("design", "vecadd", "accelerator design to offer")
	params := flag.String("params", "", "design parameters, k=v[,k=v...]")
	variant := flag.String("variant", "128/16x", "shield engine variant (128/4x, 128/16x, 256/4x, 256/16x, +pmac suffix)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	debugAddr := flag.String("debug", "", "serve net/http/pprof and /debug/stats on this address (off when empty)")
	maxSessions := flag.Int("max-sessions", 0, "admission control: max concurrent owner sessions (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "admission control: connections allowed to wait for a session slot before shedding")
	retryAfter := flag.Duration("retry-after", 100*time.Millisecond, "backoff hint sent with shed (busy) responses")
	flag.Parse()

	v, err := accel.ParseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	opts := hostapp.Options{
		Design:  *design,
		Params:  accel.ParseParams(*params),
		Variant: v,
	}
	vendor, product, err := hostapp.BuildVendor(opts)
	if err != nil {
		log.Fatalf("shefd: building vendor: %v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("shefd: %v", err)
	}
	cfg := hostapp.ServerConfig{
		MaxSessions: *maxSessions,
		MaxQueue:    *maxQueue,
		RetryAfter:  *retryAfter,
	}
	srv := hostapp.NewVendorServerWith(vendor, ln, cfg)
	fmt.Printf("shefd: serving product %q on %s\n", product, srv.Addr())
	if *maxSessions > 0 {
		fmt.Printf("shefd: admission control: %d session(s), queue %d, retry-after %s\n", *maxSessions, *maxQueue, *retryAfter)
	}
	fmt.Printf("shefd: designs available in this build: %v\n", accel.Designs())

	dbg, err := startDebug(*debugAddr, srv)
	if err != nil {
		log.Fatalf("shefd: debug server: %v", err)
	}
	if dbg != nil {
		fmt.Printf("shefd: debug endpoints on http://%s/debug/pprof/ and /debug/stats\n", dbg.Addr())
		defer dbg.Close()
	}

	errc := make(chan error, 1)
	go func() {
		errc <- srv.Serve(func(err error) {
			fmt.Fprintf(os.Stderr, "shefd: %v\n", err)
		})
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("shefd: %v: draining sessions (up to %s)\n", sig, *drain)
		if err := srv.Shutdown(*drain); err != nil {
			fmt.Fprintf(os.Stderr, "shefd: %v\n", err)
		}
		<-errc
	case err := <-errc:
		if err != nil && err != hostapp.ErrServerClosed {
			log.Fatalf("shefd: %v", err)
		}
	}
	st := srv.Stats()
	fmt.Printf("shefd: served %d session(s), %d failed, %d shed\n", st.Served, st.Failed, st.Shed)
}

// startDebug stands up the opt-in observability listener. An empty addr —
// the default — serves nothing: debug surface is strictly explicit.
func startDebug(addr string, srv *hostapp.VendorServer) (*hostapp.DebugServer, error) {
	if addr == "" {
		return nil, nil
	}
	return hostapp.NewDebugServer(addr, func() any {
		return map[string]any{
			"server":   srv.Stats(),
			"sessions": srv.Sessions(),
		}
	})
}
