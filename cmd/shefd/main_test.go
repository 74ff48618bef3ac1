package main

import (
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"shef/internal/attest"
	"shef/internal/hostapp"
)

// TestDebugOffByDefault pins the operational contract: no -debug flag, no
// debug listener. startDebug("") must be a no-op, and the flag's default
// must be empty so a plain `shefd` invocation serves nothing on any debug
// port.
func TestDebugOffByDefault(t *testing.T) {
	dbg, err := startDebug("", nil)
	if err != nil || dbg != nil {
		t.Fatalf("startDebug(\"\") = %v, %v; want nil, nil", dbg, err)
	}
}

// newTestServer builds a VendorServer without accepting connections —
// enough for the stats provider.
func newTestServer(t *testing.T) *hostapp.VendorServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return hostapp.NewVendorServer(&attest.Vendor{CA: attest.NewCA()}, ln)
}

// TestDebugServesProfilesAndStats is the -debug regression test: the
// listener must serve the live pprof index, the profile endpoints, and
// the JSON stats document, then shut down cleanly.
func TestDebugServesProfilesAndStats(t *testing.T) {
	srv := newTestServer(t)
	dbg, err := startDebug("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + dbg.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d, body %q", code, body)
	}
	if code, _ := get("/debug/pprof/mutex"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/mutex = %d", code)
	}

	code, body := get("/debug/stats")
	if code != http.StatusOK {
		t.Fatalf("/debug/stats = %d", code)
	}
	var doc struct {
		Server   hostapp.ServerStats   `json:"server"`
		Sessions []hostapp.SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stats endpoint returned invalid JSON: %v\n%s", err, body)
	}
	if doc.Sessions == nil || len(doc.Sessions) != 0 {
		t.Fatalf("idle server reported sessions %v", doc.Sessions)
	}

	// Clean shutdown: Close returns without error and the port stops
	// answering — a drained shefd leaves no debug listener behind.
	if err := dbg.Close(); err != nil {
		t.Fatalf("debug server shutdown: %v", err)
	}
	client := &http.Client{Timeout: 500 * time.Millisecond}
	if resp, err := client.Get(base + "/debug/stats"); err == nil {
		resp.Body.Close()
		t.Fatal("debug listener still serving after Close")
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("vendor server drain: %v", err)
	}
}

// TestDebugFlagDefault keeps the flag wiring honest: -debug must exist
// and default to off.
func TestDebugFlagDefault(t *testing.T) {
	fs := flag.NewFlagSet("shefd", flag.ContinueOnError)
	addr := fs.String("debug", "", "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *addr != "" {
		t.Fatalf("debug default = %q, want empty (off)", *addr)
	}
}
