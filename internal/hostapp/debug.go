package hostapp

// The shefd debug/observability listener: live net/http/pprof endpoints
// (CPU, heap, mutex, block, goroutine profiles on demand) plus a JSON
// stats endpoint for the serving counters and live sessions. Strictly opt-in:
// nothing listens unless the operator passes `shefd -debug addr`, and the
// debug mux is its own — the profile handlers are registered explicitly,
// never on http.DefaultServeMux, so importing this package does not leak
// debug surface into any other server the process runs.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// StatsFunc supplies the /debug/stats document. It is called per request;
// return a JSON-serialisable snapshot (server counters, session list,
// per-shard rows — whatever the deployment has).
type StatsFunc func() any

// DebugServer is a live debug listener. Build one with NewDebugServer
// only when debugging is requested; there is no ambient default.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// NewDebugServer starts serving pprof and stats endpoints on addr
// (e.g. "localhost:6060"; ":0" picks a free port — see Addr). The mutex
// and block profilers are sampled at a low rate while the server runs so
// the off-CPU endpoints have data; the rates are restored on Close.
func NewDebugServer(addr string, stats StatsFunc) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		var doc any
		if stats != nil {
			doc = stats()
		}
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	runtime.SetMutexProfileFraction(5)
	runtime.SetBlockProfileRate(10_000)
	go d.srv.Serve(ln)
	return d, nil
}

// Addr reports the bound address (useful with ":0").
func (d *DebugServer) Addr() net.Addr { return d.ln.Addr() }

// Close drains in-flight debug requests briefly and stops the listener,
// restoring the profiler sampling rates.
func (d *DebugServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
	return err
}
