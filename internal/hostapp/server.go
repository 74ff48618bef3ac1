package hostapp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shef/internal/attest"
	"shef/internal/faultinject"
	"shef/internal/profiling"
)

// OwnerSession is one Data Owner connection being served. Each session is
// fully isolated: it owns its connection and its protocol scratch state,
// and touches the vendor only through attest.Vendor's concurrent-safe
// surfaces (the CA registry and the read-only bitstream catalogue). No
// mutable vendor state is shared between sessions, so a slow or malicious
// owner cannot corrupt a neighbour's attestation.
type OwnerSession struct {
	ID     uint64
	Remote string

	conn net.Conn
}

// ServerConfig bounds the serving tier. The zero value is the legacy
// unbounded server (accept everything, queue nothing).
type ServerConfig struct {
	// MaxSessions caps concurrently served sessions; 0 means unlimited.
	MaxSessions int
	// MaxQueue is how many connections may wait for a session slot when
	// MaxSessions are busy. Beyond that, new connections are shed with a
	// busy response. 0 means no queue: at capacity, shed immediately.
	MaxQueue int
	// RetryAfter is the backoff hint sent with a shed; default 100ms.
	RetryAfter time.Duration
}

// VendorServer multiplexes Data Owner sessions over one attestation
// vendor: the serving tier of shefd. Connections are accepted on a
// listener and served one goroutine per session, with admission control
// (max-sessions plus a bounded wait queue; excess load is shed with a
// retry-after hint rather than accepted unboundedly) and bounded-time
// graceful shutdown.
type VendorServer struct {
	vendor *attest.Vendor
	ln     net.Listener
	cfg    ServerConfig

	mu       sync.Mutex
	sessions map[uint64]*OwnerSession
	nextID   uint64
	closed   bool

	// closedCh is the shutdown gate: closed (under mu) the moment
	// Shutdown begins, before any session is force-closed, so connections
	// waiting in the admission queue abort instead of being admitted into
	// a drain that has already walked the session table.
	closedCh chan struct{}

	// slots is the session-slot semaphore (nil when unlimited); queued
	// tracks connections waiting for a slot.
	slots  chan struct{}
	queued atomic.Int64

	wg     sync.WaitGroup
	served atomic.Uint64
	failed atomic.Uint64
	shed   atomic.Uint64
}

// NewVendorServerWith wraps a vendor and a listener with admission
// control. Call Serve to start accepting.
func NewVendorServerWith(vendor *attest.Vendor, ln net.Listener, cfg ServerConfig) *VendorServer {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 100 * time.Millisecond
	}
	s := &VendorServer{
		vendor:   vendor,
		ln:       ln,
		cfg:      cfg,
		sessions: make(map[uint64]*OwnerSession),
		closedCh: make(chan struct{}),
	}
	if cfg.MaxSessions > 0 {
		s.slots = make(chan struct{}, cfg.MaxSessions)
	}
	return s
}

// Addr reports the listen address.
func (s *VendorServer) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts and serves owner sessions until Shutdown (or a fatal
// listener error). It blocks; run it on its own goroutine when the caller
// has other work. Admission (including waiting for a session slot)
// happens on the per-connection goroutine so a full server keeps
// accepting — and shedding — instead of letting the kernel backlog grow.
func (s *VendorServer) Serve(onError func(error)) error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		if !s.track() {
			conn.Close()
			return ErrServerClosed
		}
		go s.serveConn(conn, onError)
	}
}

// track registers one connection goroutine with the drain waitgroup. The
// Add happens under the same lock as the closed check, so a connection
// can never slip in between Shutdown's closed=true and its wg.Wait (the
// classic Add-vs-Wait race).
func (s *VendorServer) track() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// serveConn runs one connection through admission and, if admitted, the
// owner protocol. The request is read only once a slot is held, so a
// peer that stalls mid-request occupies a slot, not memory outside
// admission.
func (s *VendorServer) serveConn(conn net.Conn, onError func(error)) {
	defer s.wg.Done()
	if !s.acquireSlot(conn) {
		return
	}
	defer s.releaseSlot()
	sess, ok := s.admit(conn)
	if !ok {
		conn.Close()
		return
	}
	defer s.release(sess)
	// Each session goroutine carries its session ID as a profiling
	// label and runs inside a trace region, so a harness attributes
	// serving CPU per session and the execution trace shows session
	// lifetimes. Sessions are connection-rate, not op-rate, so the
	// label formatting is off the hot path.
	var err error
	serve := func() {
		var rw io.ReadWriter = conn
		if faultinject.Enabled() {
			rw = faultinject.WrapRW(conn, "attest.conn", int(sess.ID))
		}
		err = s.vendor.HandleOwner(rw)
	}
	if profiling.Enabled() {
		profiling.Do(context.Background(), func() {
			profiling.Region(context.Background(), "hostapp.session", serve)
		}, "subsystem", "hostapp", "session", strconv.FormatUint(sess.ID, 10))
	} else {
		serve()
	}
	if err != nil {
		s.failed.Add(1)
		if onError != nil {
			onError(fmt.Errorf("session %d from %s: %w", sess.ID, sess.Remote, err))
		}
		return
	}
	s.served.Add(1)
}

// acquireSlot is the admission gate. With MaxSessions unset it admits
// immediately. At capacity the connection joins the bounded wait queue;
// past the queue bound it is shed: the server writes the busy response
// with the retry-after hint and closes (shedConn). A queued connection
// aborts if shutdown begins. Reports whether a slot was acquired.
func (s *VendorServer) acquireSlot(conn net.Conn) bool {
	if s.slots == nil {
		return true
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.shed.Add(1)
		s.shedConn(conn)
		return false
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return true
	case <-s.closedCh:
		conn.Close()
		return false
	}
}

// shedDrainTimeout bounds how long a shed connection is drained, and
// shedDrainBytes how much of the client's request is read, before close.
const (
	shedDrainTimeout = 250 * time.Millisecond
	shedDrainBytes   = 1 << 20
)

// shedConn answers a connection that admission control refused: the busy
// response, then a half-close so the client reads it followed by EOF,
// then a bounded drain of whatever the client has sent, then close.
// Closing with the client's request still unread would make the kernel
// reset the connection, and a client still writing would see
// `write: broken pipe` instead of the busy response.
func (s *VendorServer) shedConn(conn net.Conn) {
	defer conn.Close()
	if attest.WriteBusy(conn, s.cfg.RetryAfter) != nil {
		return
	}
	cw, ok := conn.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	if conn.SetReadDeadline(time.Now().Add(shedDrainTimeout)) != nil {
		return
	}
	// The drain ends at EOF, the deadline or a reset; the connection
	// closes the same way after each, so the error is not needed.
	_, _ = io.Copy(io.Discard, io.LimitReader(conn, shedDrainBytes))
}

func (s *VendorServer) releaseSlot() {
	if s.slots != nil {
		<-s.slots
	}
}

// admit registers a new session unless the server is shutting down.
func (s *VendorServer) admit(conn net.Conn) (*OwnerSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	s.nextID++
	sess := &OwnerSession{ID: s.nextID, Remote: conn.RemoteAddr().String(), conn: conn}
	s.sessions[sess.ID] = sess
	return sess, true
}

func (s *VendorServer) release(sess *OwnerSession) {
	sess.conn.Close()
	s.mu.Lock()
	delete(s.sessions, sess.ID)
	s.mu.Unlock()
}

// Shutdown stops accepting and waits up to timeout for in-flight sessions
// to drain; sessions still running after that are cut off. The gate
// (closed flag and closedCh) is shut before any session is walked, so a
// connection still in admission when the drain starts either finished
// admitting before the gate closed — and is then visible to the force
// pass — or aborts; nothing is admitted after the force pass and left
// running unreleased. It is safe to call more than once.
func (s *VendorServer) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.closedCh)
	}
	s.mu.Unlock()
	if !already {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	// Force the stragglers: closing their connections unblocks HandleOwner.
	s.mu.Lock()
	n := len(s.sessions)
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	<-done
	if n == 0 {
		// The last session released in the instant between the timeout and
		// the force pass: that is a clean drain, not a cut-off.
		return nil
	}
	return fmt.Errorf("hostapp: %d session(s) cut off after %s drain", n, timeout)
}

// ServerStats is a point-in-time serving report.
type ServerStats struct {
	Active uint64
	Queued uint64
	Served uint64
	Failed uint64
	// Shed counts connections refused by admission control (busy
	// response sent, connection closed).
	Shed uint64
	// MaxSessions echoes the configured bound (0 = unlimited) so a stats
	// consumer can tell "quiet" from "unbounded".
	MaxSessions int
}

// Stats snapshots session counters.
func (s *VendorServer) Stats() ServerStats {
	s.mu.Lock()
	active := uint64(len(s.sessions))
	s.mu.Unlock()
	return ServerStats{
		Active:      active,
		Queued:      uint64(s.queued.Load()),
		Served:      s.served.Load(),
		Failed:      s.failed.Load(),
		Shed:        s.shed.Load(),
		MaxSessions: s.cfg.MaxSessions,
	}
}

// SessionInfo is one live session as the debug stats endpoint reports it.
type SessionInfo struct {
	ID     uint64 `json:"id"`
	Remote string `json:"remote"`
}

// Sessions snapshots the live sessions (the session rows of the -debug
// stats endpoint), sorted by admission order via their IDs.
func (s *VendorServer) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, SessionInfo{ID: sess.ID, Remote: sess.Remote})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ErrServerClosed mirrors net/http's sentinel for callers that want to
// distinguish an orderly shutdown from an accept failure.
var ErrServerClosed = errors.New("hostapp: server closed")
