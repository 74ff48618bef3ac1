package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"shef/internal/sdp"
)

// ---------------------------------------------------------------------
// Degraded-mode throughput: the resilience counterpart of the cluster
// scaling sweep. A replicated fleet serves the same offered load twice —
// once healthy, once with a shard crashed — and the retained fraction is
// the headline: replication and replica fallback must keep the cluster
// serving through a single-node failure, not just surviving it.

// DegradedRow reports one healthy-vs-degraded comparison.
type DegradedRow struct {
	Shards   int
	Replicas int
	Workers  int
	// Ops is the per-window operation count (same offered load both
	// windows).
	Ops int
	// HealthyOpsPerSec and DegradedOpsPerSec are real wall-clock rates
	// for the two windows; RetainX is degraded/healthy — the fraction of
	// serving capacity the fleet keeps through one crashed shard.
	HealthyOpsPerSec  float64
	DegradedOpsPerSec float64
	RetainX           float64
	// DegradedWrites and FallbackReads are the cluster's own degraded-
	// mode accounting for the failure window — nonzero values prove the
	// degraded window actually exercised quorum writes and replica
	// fallback rather than dodging the dead shard.
	DegradedWrites uint64
	FallbackReads  uint64
	// Repairs counts the anti-entropy rewrites that reconverged the
	// fleet after the shard restarted.
	Repairs uint64
}

// degradedClusterConfig is the replicated serving fleet under test:
// every file on three shards, majority write quorum (2), so any single
// shard loss leaves every file writable and readable.
func degradedClusterConfig(shards int) sdp.ClusterConfig {
	return sdp.ClusterConfig{
		Shards:   shards,
		Node:     clusterNodeConfig(),
		Replicas: 3,
		Retry: sdp.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 200 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
			Seed:        1,
		},
		OpTimeout: 10 * time.Second,
	}
}

// runDegradedWindow drives the shared Put/Get mix (1:3, like the scaling
// sweep) for one measured window, one Client per worker, and returns the
// real ops/sec.
func runDegradedWindow(clients []*sdp.Client, files []*clusterFile, opsPerWorker int) (float64, error) {
	workers := len(clients)
	errs := make([]error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			phase := w * len(files) / workers
			var dst []byte
			for i := 0; i < opsPerWorker; i++ {
				f := files[(phase+i)%len(files)]
				var err error
				if i%(clusterGetsPut+1) == 0 {
					err = cl.Put("load", f.name, f.payload)
				} else {
					dst, err = cl.Get("load", f.name, dst)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(workers*opsPerWorker) / elapsed.Seconds(), nil
}

// DegradedThroughput measures a four-shard, three-replica fleet at a
// fixed offered load, healthy and then with one shard crashed, restarts
// the shard, lets anti-entropy reconverge, and verifies every payload
// round-trips. The degraded window runs against the failure exactly as a
// serving tier would see it: the health detector discovering the dead
// shard, reads falling back replica-by-replica, writes acking at quorum.
func DegradedThroughput(tc TimerControl, scale Scale) (DegradedRow, error) {
	if tc != nil {
		tc.StopTimer()
		defer tc.StartTimer()
	}
	const shards, workers = 4, clusterWorkers8
	opsPerWorker := clusterOps(scale)
	c, err := sdp.NewCluster(degradedClusterConfig(shards))
	if err != nil {
		return DegradedRow{}, err
	}
	if err := c.RegisterUser("load", []byte("load-key")); err != nil {
		return DegradedRow{}, err
	}
	// A seeder Client provisions the working set and verifies it after
	// recovery; each worker drives its own Client.
	seeder, err := c.NewClient()
	if err != nil {
		return DegradedRow{}, err
	}
	files := make([]*clusterFile, clusterFiles)
	for i, name := range clusterFileSet() {
		payload := make([]byte, clusterPayload)
		for j := range payload {
			payload[j] = byte(j + i*41)
		}
		files[i] = &clusterFile{name: name, payload: payload}
		if err := seeder.Put("load", name, payload); err != nil {
			return DegradedRow{}, err
		}
		if _, err := seeder.Get("load", name, nil); err != nil {
			return DegradedRow{}, err
		}
	}
	clients := make([]*sdp.Client, workers)
	for w := range clients {
		if clients[w], err = c.NewClient(); err != nil {
			return DegradedRow{}, err
		}
	}
	c.ResetStats()
	if tc != nil {
		tc.StartTimer()
	}
	healthy, err := runDegradedWindow(clients, files, opsPerWorker)
	if tc != nil {
		tc.StopTimer()
	}
	if err != nil {
		return DegradedRow{}, err
	}

	// One shard dies; the same offered load runs again.
	const crashed = 1
	c.CrashShard(crashed)
	c.ResetStats()
	if tc != nil {
		tc.StartTimer()
	}
	degraded, err := runDegradedWindow(clients, files, opsPerWorker)
	if tc != nil {
		tc.StopTimer()
	}
	if err != nil {
		return DegradedRow{}, fmt.Errorf("experiments: degraded window: %w", err)
	}
	st := c.Stats()

	// Recovery: restart, reconverge, verify every payload survived the
	// whole exercise byte-for-byte.
	if err := c.RestartShard(crashed); err != nil {
		return DegradedRow{}, err
	}
	if err := c.Sync(); err != nil {
		return DegradedRow{}, err
	}
	for _, f := range files {
		got, err := seeder.Get("load", f.name, nil)
		if err != nil {
			return DegradedRow{}, err
		}
		if !bytes.Equal(got, f.payload) {
			return DegradedRow{}, fmt.Errorf("experiments: %s corrupted through the degraded window", f.name)
		}
	}
	row := DegradedRow{
		Shards:            shards,
		Replicas:          3,
		Workers:           workers,
		Ops:               workers * opsPerWorker,
		HealthyOpsPerSec:  healthy,
		DegradedOpsPerSec: degraded,
		DegradedWrites:    st.DegradedWrites,
		FallbackReads:     st.FallbackReads,
		Repairs:           c.Stats().Repairs,
	}
	if healthy > 0 {
		row.RetainX = degraded / healthy
	}
	return row, nil
}
