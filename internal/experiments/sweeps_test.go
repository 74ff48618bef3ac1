package experiments

import "testing"

// TestServingSweeps runs the sweeps that otherwise run only in the bench
// job and in benchtab, and pins what they feed BENCH_baseline.json: the
// ORAM points and amplification exactly (they are deterministic simulated
// cycles), and the cluster and degraded rows by shape, operation count and
// nonzero simulated busy time or degraded-mode accounting. The cluster
// rows' simulated rates are not pinned: which shard is busiest depends on
// goroutine interleaving.
func TestServingSweeps(t *testing.T) {
	t.Parallel()

	serial, batched, err := ORAMPathSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got, want ORAMPoint
	}{
		{serial, ORAMPoint{Mode: "serial per-bucket", Blocks: 4096, BlockSize: 512, CyclesPerAccess: 11102, Amplification: 107.25}},
		{batched, ORAMPoint{Mode: "batched gather", Blocks: 4096, BlockSize: 512, CyclesPerAccess: 6957, Amplification: 130}},
	} {
		if c.got != c.want {
			t.Errorf("ORAMPathSweep point = %+v, want %+v", c.got, c.want)
		}
	}

	amp, err := ORAMAmplification()
	if err != nil {
		t.Fatal(err)
	}
	if amp != 80 {
		t.Errorf("ORAMAmplification = %v, want 80", amp)
	}

	d, err := DegradedThroughput(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards != 4 || d.Replicas != 3 || d.Workers != clusterWorkers8 || d.Ops != clusterWorkers8*clusterOps {
		t.Errorf("DegradedThroughput row shape = %+v", d)
	}
	if d.DegradedWrites == 0 || d.Repairs == 0 {
		t.Errorf("degraded window recorded %d degraded writes and %d repairs, want both > 0",
			d.DegradedWrites, d.Repairs)
	}

	checkRows := func(name string, rows []ClusterRow, err error, shards, workers []int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != len(shards) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(shards))
		}
		for i, r := range rows {
			if r.Shards != shards[i] || r.Workers != workers[i] || r.Ops != workers[i]*clusterOps {
				t.Errorf("%s row %d = %d shards, %d workers, %d ops; want %d, %d, %d",
					name, i, r.Shards, r.Workers, r.Ops, shards[i], workers[i], workers[i]*clusterOps)
			}
			if r.SimMaxBusy == 0 || r.SimOpsPerSec <= 0 {
				t.Errorf("%s row %d: SimMaxBusy %d, SimOpsPerSec %v; want both > 0",
					name, i, r.SimMaxBusy, r.SimOpsPerSec)
			}
		}
	}
	rows, err := ClusterThroughput(nil)
	checkRows("ClusterThroughput", rows, err, []int{1, 2, 4, 8}, []int{8, 8, 8, 8})
	rows, err = ClusterWorkerSweep(nil)
	checkRows("ClusterWorkerSweep", rows, err, []int{4, 4, 4, 4, 4}, []int{1, 2, 4, 8, 16})
}
