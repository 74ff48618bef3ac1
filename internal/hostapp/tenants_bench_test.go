package hostapp

import (
	"errors"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"shef/internal/attest"
)

// BenchmarkTenantFairness measures how much throughput a well-behaved
// tenant keeps when a noisy neighbour floods a saturated server:
// real-tenant-fairness-x = victim ops/sec under flood / victim ops/sec
// alone. Both ends run on the same host in the same process, so the
// ratio is host-relative; benchtab -check floors it at 0.25 — below
// that, the fair-share admission gate is no longer protecting
// victims from noisy neighbours.
func BenchmarkTenantFairness(b *testing.B) {
	srv, _ := overloadServer(b, ServerConfig{
		MaxSessions: 4,
		MaxQueue:    4,
		TenantFair:  true,
		RetryAfter:  time.Millisecond,
	})
	defer srv.Shutdown(5 * time.Second)
	srv.vendor.Zones = &slowZones{ZoneHandler: srv.Tenants(), delay: time.Millisecond}
	addr := srv.Addr().String()

	victimOp := func() error {
		for try := 0; try < 100; try++ {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return err
			}
			err = attest.CreateZone(conn, "victim", 0)
			conn.Close()
			if !errors.Is(err, attest.ErrBusy) {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		return errors.New("victim starved: every retry came back busy")
	}

	// One trial is 30 sequential victim ops; a rate is the median of
	// three trials, which damps scheduler noise enough that the 0.25
	// floor gates fairness rather than host jitter.
	const ops = 30
	trial := func() float64 {
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := victimOp(); err != nil {
				b.Fatal(err)
			}
		}
		return float64(ops) / time.Since(start).Seconds()
	}
	measure := func() float64 {
		rates := []float64{trial(), trial(), trial()}
		sort.Float64s(rates)
		return rates[1]
	}

	rateAlone := measure()

	stop := make(chan struct{})
	var flood sync.WaitGroup
	for i := 0; i < 4; i++ {
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
	rateFlooded := measure()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := victimOp(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	flood.Wait()

	fairness := rateFlooded / rateAlone
	b.ReportMetric(fairness, "real-tenant-fairness-x")
	b.Logf("victim: %.0f ops/sec alone, %.0f ops/sec under flood → %.2fx retained", rateAlone, rateFlooded, fairness)
}
