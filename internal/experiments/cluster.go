package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"shef/internal/crypto/aesx"
	"shef/internal/sdp"
	"shef/internal/shield"
)

// ---------------------------------------------------------------------
// Cluster throughput: the §6.2.3 SDP case study grown to a serving fleet.
// Not a paper table — this is the ROADMAP's "millions of users" direction:
// aggregate ops/sec across sharded Storage Nodes, swept over shard count
// (fleet size) and goroutine count (offered load).

// ClusterRow is one point of the throughput sweep.
type ClusterRow struct {
	Shards  int
	Workers int
	Ops     int
	// Elapsed is host wall-clock for the measured window; OpsPerSec is the
	// real (not simulated) aggregate rate, which is what scales with the
	// fleet once the data path runs on goroutines.
	Elapsed   time.Duration
	OpsPerSec float64
	// SimMaxBusy is the busiest shard's simulated busy cycles — the fleet
	// analogue of the Shield's max-across-engine-sets wall-clock model.
	// SimOpsPerSec is the corresponding simulated aggregate rate
	// (ops / SimMaxBusy at the Storage Node line-rate clock): on a
	// single-core CI host real ops/sec cannot exceed one shard's rate, but
	// the simulated rate still shows how the fleet scales.
	SimMaxBusy   uint64
	SimOpsPerSec float64
}

// TimerControl is the subset of testing.B the sweeps use to exclude
// cluster construction, sealed key-DB provisioning, and cache warm-up
// from the measured window. A nil TimerControl is ignored (the benchtab
// path, which reports wall-clock per row itself).
type TimerControl interface {
	StopTimer()
	StartTimer()
}

// Fleet-sweep workload geometry. The file set is larger than any single
// shard's on-chip capacity but fits the eight-shard fleet's aggregate:
// at clusterPayload = 8 KB (two 4 KB auth blocks) the 16-file working
// set needs 32 buffer lines and ~132 KB of sealed responses, against a
// per-shard store buffer of 4 lines and a 24 KB response cache. One
// shard thrashes both (every Get refetches and re-seals); spread over
// eight shards each node holds its two files' store lines and sealed
// responses resident. That aggregate-capacity cliff — not goroutine
// parallelism, which a one-core CI host cannot provide — is what makes
// real ops/sec scale with the fleet.
const (
	clusterFiles    = 16
	clusterPayload  = 8 << 10
	clusterGetsPut  = 3 // measured mix: 1 Put : 3 Gets, the serving shape
	clusterWorkers8 = 8
)

// clusterNodeConfig sizes the per-shard Storage Node for the sweep: PMAC
// engines (the paper's fast configuration), slots for the whole file set
// (any shard may be asked for any file), the serving-tier WriteBack
// policy, and the sealed-response cache sized to hold the home files of
// a balanced eight-shard placement.
func clusterNodeConfig() sdp.NodeConfig {
	return sdp.NodeConfig{
		Slots: 64, SlotBytes: 16 << 10, AuthBlock: 4096,
		Engines: 4, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes:        16 << 10,
		WriteBack:          true,
		ResponseCacheBytes: 24 << 10,
	}
}

// clusterFileSet picks file names whose FNV routing is balanced at eight
// shards (exactly two files per shard, which also balances the 2- and
// 4-shard sweeps since those fold shard pairs together). Skew would let
// one overloaded shard cap the whole fleet's measured rate.
func clusterFileSet() []string {
	names := make([]string, 0, clusterFiles)
	perShard := make([]int, 8)
	for i := 0; len(names) < clusterFiles; i++ {
		name := fmt.Sprintf("f%03d", i)
		if s := sdp.ShardIndex(name, 8); perShard[s] < clusterFiles/8 {
			perShard[s]++
			names = append(names, name)
		}
	}
	return names
}

// clusterFile is one file of the shared working set: its name, distinct
// payload, and the pre-sealed Put image workers replay (GetSealed reuses
// the session staging buffers, so the image keeps its own copy).
type clusterFile struct {
	name    string
	payload []byte
	putCT   []byte
	putTags []byte
}

// runClusterLoad builds a cluster and drives workers goroutines over the
// shared file set: each worker strides the files from its own phase,
// issuing one Put per clusterGetsPut+1 operations. Striding (instead of
// each worker camping on one file) is what a serving tier sees — the
// request stream interleaves tenants — and it is what defeats a single
// shard's caches while leaving a balanced fleet's residency intact.
func runClusterLoad(tc TimerControl, shards, workers int) (ClusterRow, error) {
	if tc != nil {
		tc.StopTimer()
		defer tc.StartTimer()
	}
	c, err := sdp.NewCluster(sdp.ClusterConfig{Shards: shards, Node: clusterNodeConfig()})
	if err != nil {
		return ClusterRow{}, err
	}
	if err := c.RegisterUser("load", []byte("load-key")); err != nil {
		return ClusterRow{}, err
	}
	// Provision the working set before the window opens: seal each file's
	// Put image once on a Data-Owner session, store it, and serve it once
	// so first-touch fetches land outside the window.
	seeder, err := c.NewClient()
	if err != nil {
		return ClusterRow{}, err
	}
	files := make([]*clusterFile, clusterFiles)
	for i, name := range clusterFileSet() {
		payload := make([]byte, clusterPayload)
		for j := range payload {
			payload[j] = byte(j + i*37)
		}
		ct, tags, err := seeder.Session(name).Seal(payload)
		if err != nil {
			return ClusterRow{}, err
		}
		files[i] = &clusterFile{
			name:    name,
			payload: payload,
			putCT:   append([]byte(nil), ct...),
			putTags: append([]byte(nil), tags...),
		}
		if err := seeder.PutSealed("load", name, len(payload), ct, tags); err != nil {
			return ClusterRow{}, err
		}
		if _, _, err := seeder.GetSealed("load", name); err != nil {
			return ClusterRow{}, err
		}
	}
	clients := make([]*sdp.Client, workers)
	for w := range clients {
		if clients[w], err = c.NewClient(); err != nil {
			return ClusterRow{}, err
		}
	}
	c.ResetStats()
	errs := make([]error, workers)
	if tc != nil {
		tc.StartTimer()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			phase := w * clusterFiles / workers
			for i := 0; i < clusterOps; i++ {
				f := files[(phase+i)%clusterFiles]
				if i%(clusterGetsPut+1) == 0 {
					if err := cl.PutSealed("load", f.name, len(f.payload), f.putCT, f.putTags); err != nil {
						errs[w] = err
						return
					}
				} else if _, _, err := cl.GetSealed("load", f.name); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if tc != nil {
		tc.StopTimer()
	}
	for _, err := range errs {
		if err != nil {
			return ClusterRow{}, err
		}
	}
	// Post-window correctness: open every file on the client side — through
	// whatever mix of response cache and full data path serves it — and
	// check the distinct payloads round-trip, then drain dirty store lines.
	for _, f := range files {
		size, sess, err := seeder.GetSealed("load", f.name)
		if err != nil {
			return ClusterRow{}, err
		}
		ct, tags := sess.Buffers()
		got, err := sess.Open(nil, ct, tags, size)
		if err != nil {
			return ClusterRow{}, err
		}
		if !bytes.Equal(got, f.payload) {
			return ClusterRow{}, fmt.Errorf("experiments: %s corrupted through the sealed serving path", f.name)
		}
	}
	if err := c.Sync(); err != nil {
		return ClusterRow{}, err
	}
	ops := workers * clusterOps
	row := ClusterRow{
		Shards:     shards,
		Workers:    workers,
		Ops:        ops,
		Elapsed:    elapsed,
		OpsPerSec:  float64(ops) / elapsed.Seconds(),
		SimMaxBusy: c.Stats().MaxBusy,
	}
	if row.SimMaxBusy > 0 {
		row.SimOpsPerSec = float64(ops) / sdp.LineRateParams().Seconds(row.SimMaxBusy)
	}
	return row, nil
}

// clusterOps is the ops per worker: enough iterations for a steady-state
// window. (The payload is fixed — the working-set-to-buffer geometry
// above is the experiment.)
const clusterOps = 256

// ClusterThroughput sweeps fleet size at a fixed offered load (eight
// client goroutines): aggregate ops/sec should grow with shards until the
// client count is the limit.
func ClusterThroughput(tc TimerControl) ([]ClusterRow, error) {
	var rows []ClusterRow
	for _, shards := range []int{1, 2, 4, 8} {
		row, err := runClusterLoad(tc, shards, clusterWorkers8)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ClusterWorkerSweep sweeps offered load (client goroutines) over a fixed
// four-shard fleet: throughput should rise until workers saturate the
// shards they hash onto.
func ClusterWorkerSweep(tc TimerControl) ([]ClusterRow, error) {
	var rows []ClusterRow
	for _, workers := range []int{1, 2, 4, 8, 16} {
		row, err := runClusterLoad(tc, 4, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
