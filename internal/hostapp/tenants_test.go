package hostapp

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shef/internal/attest"
)

// dialZone runs one zone RPC on a fresh connection (each owner connection
// carries exactly one request).
func dialZone(t testing.TB, addr string, op func(net.Conn) error) error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	return op(conn)
}

// TestZoneRPCRoundtrip drives the tenant zone lifecycle over the wire:
// creates within quota succeed, the over-quota create comes back with the
// server's typed error text, the distinct-tenant cap refuses a third
// tenant, and destroy releases the budget for reuse.
func TestZoneRPCRoundtrip(t *testing.T) {
	srv, _ := overloadServer(t, ServerConfig{
		MaxTenants:       2,
		TenantQuotaBytes: 1 << 20,
	})
	defer srv.Shutdown(time.Second)
	addr := srv.Addr().String()

	if err := dialZone(t, addr, func(c net.Conn) error {
		return attest.CreateZone(c, "acme", 512<<10)
	}); err != nil {
		t.Fatalf("first zone: %v", err)
	}
	// Over quota: the server's *TenantQuotaError text crosses the wire.
	err := dialZone(t, addr, func(c net.Conn) error {
		return attest.CreateZone(c, "acme", 768<<10)
	})
	if err == nil || !strings.Contains(err.Error(), `tenant "acme" quota exceeded`) {
		t.Fatalf("over-quota create: got %v, want tenant quota error text", err)
	}
	// Second tenant fits; a third distinct tenant hits the cap.
	if err := dialZone(t, addr, func(c net.Conn) error {
		return attest.CreateZone(c, "globex", 1<<10)
	}); err != nil {
		t.Fatalf("second tenant: %v", err)
	}
	err = dialZone(t, addr, func(c net.Conn) error {
		return attest.CreateZone(c, "initech", 1<<10)
	})
	if err == nil || !strings.Contains(err.Error(), "tenant limit") {
		t.Fatalf("third tenant: got %v, want tenant limit error", err)
	}
	// The stats endpoint sees the zone rows.
	waitFor(t, "tenant rows", func() bool { return len(srv.Stats().Tenants) >= 2 })
	rows := srv.Stats().Tenants
	byName := map[string]TenantStats{}
	for _, r := range rows {
		byName[r.Tenant] = r
	}
	if byName["acme"].Zones != 1 || byName["acme"].ZoneBytes != 512<<10 {
		t.Fatalf("acme row = %+v", byName["acme"])
	}
	if byName["acme"].QuotaBytes != 1<<20 {
		t.Fatalf("acme quota = %d, want %d", byName["acme"].QuotaBytes, 1<<20)
	}
	// Destroy frees the budget: the once-refused create now fits.
	if err := dialZone(t, addr, func(c net.Conn) error {
		return attest.DestroyZone(c, "acme")
	}); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	if err := dialZone(t, addr, func(c net.Conn) error {
		return attest.CreateZone(c, "acme", 768<<10)
	}); err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
}

// TestTenantRegistryTypedErrors pins the errors.Is/As contracts callers
// branch on.
func TestTenantRegistryTypedErrors(t *testing.T) {
	r := NewTenantRegistry(1, 100)
	if err := r.CreateZone("a", 60); err != nil {
		t.Fatal(err)
	}
	err := r.CreateZone("a", 60)
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota: got %v, want ErrTenantQuota", err)
	}
	var qe *TenantQuotaError
	if !errors.As(err, &qe) || qe.Tenant != "a" || qe.Need != 60 || qe.Used != 60 || qe.Limit != 100 {
		t.Fatalf("quota error detail = %+v", qe)
	}
	if err := r.CreateZone("b", 1); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("over-limit: got %v, want ErrTenantLimit", err)
	}
	if err := r.DestroyZone("b"); err == nil {
		t.Fatal("destroying a zoneless tenant must fail")
	}
}

// slowZones delays zone creates so each RPC pins a session slot long
// enough for admission pressure to build.
type slowZones struct {
	attest.ZoneHandler
	delay time.Duration
}

func (s *slowZones) CreateZone(tenant string, bytes uint64) error {
	time.Sleep(s.delay)
	return s.ZoneHandler.CreateZone(tenant, bytes)
}

// TestNoisyNeighborFairness floods the server from one tenant while
// well-behaved tenants issue sequential requests, and asserts the
// fair-share gate protects the victims by counting events, not time:
// every victim request completes, the victims together see only a few
// busy answers, and the shed count lands on the flooder.
func TestNoisyNeighborFairness(t *testing.T) {
	srv, _ := overloadServer(t, ServerConfig{
		MaxSessions: 4,
		MaxQueue:    4,
		TenantFair:  true,
		RetryAfter:  time.Millisecond,
	})
	defer srv.Shutdown(5 * time.Second)
	// Each zone create holds its slot ~2ms so the flood saturates.
	srv.vendor.Zones = &slowZones{ZoneHandler: srv.Tenants(), delay: 2 * time.Millisecond}
	addr := srv.Addr().String()

	stop := make(chan struct{})
	var flood sync.WaitGroup
	// The hog: 8 connections' worth of continuous zone traffic against a
	// 4-slot server.
	for i := 0; i < 8; i++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				_ = attest.CreateZone(conn, "hog", 0)
				conn.Close()
			}
		}()
	}

	// Victims: three tenants, sequential requests, retrying on busy.
	const victims, opsPerVictim, maxRetries = 3, 20, 50
	var busy atomic.Int64 // ErrBusy answers seen by all victims together
	var victimErr atomic.Value
	var wg sync.WaitGroup
	for v := 0; v < victims; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			tenant := fmt.Sprintf("victim-%d", v)
			for op := 0; op < opsPerVictim; op++ {
				var err error
				for try := 0; try < maxRetries; try++ {
					err = dialZone(t, addr, func(c net.Conn) error {
						return attest.CreateZone(c, tenant, 0)
					})
					if !errors.Is(err, attest.ErrBusy) {
						break
					}
					busy.Add(1)
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					victimErr.Store(fmt.Errorf("%s op %d: %w", tenant, op, err))
					return
				}
			}
		}(v)
	}
	wg.Wait()
	close(stop)
	flood.Wait()
	if err, _ := victimErr.Load().(error); err != nil {
		t.Fatalf("victim starved under flood: %v", err)
	}
	// A victim has at most one request in flight, so the gate almost
	// always finds it below its fair share and sheds the hog instead; the
	// rare busy answer comes from a race between admission and session
	// accounting. On a 2-vCPU host a run sees 0–1 busy answers with the
	// gate and 120–190 without it.
	if n := busy.Load(); n > victims*opsPerVictim/4 {
		t.Fatalf("victims saw %d busy answers for %d requests, want at most %d",
			n, victims*opsPerVictim, victims*opsPerVictim/4)
	}

	rows := srv.Stats().Tenants
	byName := map[string]TenantStats{}
	for _, r := range rows {
		byName[r.Tenant] = r
	}
	if byName["hog"].Shed == 0 {
		t.Fatalf("flooder was never shed: %+v", rows)
	}
	for v := 0; v < victims; v++ {
		name := fmt.Sprintf("victim-%d", v)
		if byName[name].Served != opsPerVictim {
			t.Fatalf("%s served = %d, want %d", name, byName[name].Served, opsPerVictim)
		}
	}
}
