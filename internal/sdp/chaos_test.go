package sdp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"shef/internal/faultinject"
)

// chaosSeed is the deterministic seed for the whole chaos suite. CI
// matrixes SHEF_FAULT_SEED over several values; locally the default
// makes a bare `go test -run Chaos` reproducible.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("SHEF_FAULT_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("SHEF_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

// chaosConfig is the chaos geometry: 4 shards, 3-way replication (write
// quorum 2 — the cluster must survive any single shard failing), small
// auth blocks and write-through so every acknowledged byte is sealed to
// DRAM, and no response cache so reads exercise the store path the
// corruption tests attack.
func chaosConfig(seed int64) ClusterConfig {
	node := smallConfig()
	node.Slots = 48
	node.SlotBytes = 8 << 10
	node.AuthBlock = 1024
	node.BufferBytes = 4 << 10
	return ClusterConfig{
		Shards:   4,
		Node:     node,
		Replicas: 3,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 200 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
			Seed:        seed,
		},
		OpTimeout: 10 * time.Second,
	}
}

// chaosPayload builds one file version's bytes: an 8-byte version header
// plus a fill that is a pure function of (file, version), so a torn or
// cross-wired read is detectable from content alone.
func chaosPayload(file string, version uint64) []byte {
	size := 1024 + int(version%3)*1024
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p, version)
	h := uint64(14695981039346656037)
	for i := 0; i < len(file); i++ {
		h = (h ^ uint64(file[i])) * 1099511628211
	}
	for i := 8; i < size; i++ {
		p[i] = byte(h>>((uint64(i)%8)*8)) + byte(version) + byte(i)
	}
	return p
}

// checkChaosPayload verifies a read against the generator: the header
// names the version, the fill must match it exactly.
func checkChaosPayload(file string, got []byte) (uint64, error) {
	if len(got) < 8 {
		return 0, fmt.Errorf("file %s: short read (%d bytes)", file, len(got))
	}
	version := binary.BigEndian.Uint64(got)
	want := chaosPayload(file, version)
	if !bytes.Equal(got, want) {
		return version, fmt.Errorf("file %s version %d: content does not match its header", file, version)
	}
	return version, nil
}

// TestChaosCrashRestartPartition is the headline chaos run: a seeded
// crash/restart/partition schedule plays out under a concurrent Put/Get
// workload laced with injected transient errors and latency spikes. The
// suite asserts the self-healing contract: no acknowledged write is ever
// lost, reads are served throughout (degraded mode included), per-op
// latency stays bounded, and after recovery plus Sync every replica set
// is byte-identical.
func TestChaosCrashRestartPartition(t *testing.T) {
	seed := chaosSeed(t)
	c, err := NewCluster(chaosConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterUser("alice", []byte("alice-key")); err != nil {
		t.Fatal(err)
	}

	// Background fabric trouble on top of the structural schedule.
	faultinject.Activate(&faultinject.Plan{Seed: seed, Rules: []faultinject.Rule{
		{Target: FaultSitePut, Shard: faultinject.AnyShard, Kind: faultinject.KindError, Prob: 0.05},
		{Target: FaultSiteGet, Shard: faultinject.AnyShard, Kind: faultinject.KindError, Prob: 0.05},
		{Target: FaultSiteGet, Shard: faultinject.AnyShard, Kind: faultinject.KindLatency, Prob: 0.02, Latency: time.Millisecond},
	}})
	defer faultinject.Deactivate()

	const (
		workers       = 4
		filesPerW     = 4
		opsPerWorker  = 60
		scheduleTotal = 360 // milestones within the successful-op count
		episodes      = 3
	)
	schedule := faultinject.Schedule(seed, c.Shards(), scheduleTotal, episodes)
	if len(schedule) != 2*episodes {
		t.Fatalf("schedule has %d events, want %d", len(schedule), 2*episodes)
	}

	// The chaos driver applies the schedule at successful-op milestones
	// and restores the fleet when the workload drains.
	done := make(chan struct{})
	var driverWG sync.WaitGroup
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		apply := func(ev faultinject.Event) {
			switch ev.Action {
			case faultinject.ActCrash:
				c.CrashShard(ev.Shard)
			case faultinject.ActRestart:
				if err := c.RestartShard(ev.Shard); err != nil {
					t.Errorf("restart shard %d: %v", ev.Shard, err)
					return
				}
				if err := c.Sync(); err != nil {
					t.Errorf("sync after restart of shard %d: %v", ev.Shard, err)
				}
			case faultinject.ActPartition:
				c.PartitionShard(ev.Shard)
			case faultinject.ActHeal:
				if err := c.HealShard(ev.Shard); err != nil {
					t.Errorf("heal shard %d: %v", ev.Shard, err)
					return
				}
				if err := c.Sync(); err != nil {
					t.Errorf("sync after heal of shard %d: %v", ev.Shard, err)
				}
			}
		}
		next := 0
		for next < len(schedule) {
			select {
			case <-done:
				// Workload drained before the op counter reached the
				// remaining milestones: apply them immediately so every
				// failure is healed before the final checks.
				for ; next < len(schedule); next++ {
					apply(schedule[next])
				}
				return
			default:
			}
			st := c.Stats()
			if st.Puts+st.Gets >= schedule[next].AtOp {
				apply(schedule[next])
				next++
				continue
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Workload: each worker owns its files (single writer per file), so
	// "last acknowledged version" is a well-defined per-file fact.
	type ack struct {
		file    string
		version uint64
	}
	acked := make([]map[string]uint64, workers)
	latencies := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		acked[w] = make(map[string]uint64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := c.NewClient()
			if err != nil {
				errCh <- err
				return
			}
			version := uint64(0)
			for i := 0; i < opsPerWorker; i++ {
				file := fmt.Sprintf("w%d-f%d", w, i%filesPerW)
				version++
				start := time.Now()
				err := cl.Put("alice", file, chaosPayload(file, version))
				latencies[w] = append(latencies[w], time.Since(start))
				if err == nil {
					acked[w][file] = version
				}
				last, everAcked := acked[w][file]
				if !everAcked {
					continue
				}
				start = time.Now()
				got, err := cl.Get("alice", file, nil)
				latencies[w] = append(latencies[w], time.Since(start))
				if err != nil {
					errCh <- fmt.Errorf("worker %d: read of acked %s: %w", w, file, err)
					return
				}
				v, err := checkChaosPayload(file, got)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if v < last {
					errCh <- fmt.Errorf("worker %d: %s read version %d < acked %d (lost acknowledged write)", w, file, v, last)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(done)
	driverWG.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Fleet restored (the driver healed every scheduled failure); stop
	// injecting and converge.
	faultinject.Deactivate()
	for i := 0; i < c.Shards(); i++ {
		if c.Node(i) == nil {
			t.Fatalf("shard %d still crashed after the schedule drained", i)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}

	// No lost acknowledged write, and every replica set byte-identical.
	reader := newClient(t, c)
	for w := 0; w < workers; w++ {
		for file, last := range acked[w] {
			got, err := reader.Get("alice", file, nil)
			if err != nil {
				t.Fatalf("acked file %s unreadable after recovery: %v", file, err)
			}
			v, err := checkChaosPayload(file, got)
			if err != nil {
				t.Fatal(err)
			}
			if v < last {
				t.Fatalf("file %s: recovered version %d < last acked %d", file, v, last)
			}
			reps := c.replicaSet(file)
			var first []byte
			for k, shard := range reps {
				data, err := c.Node(shard).Get("alice", file)
				if err != nil {
					t.Fatalf("file %s replica on shard %d unreadable after sync: %v", file, shard, err)
				}
				if k == 0 {
					first = data
				} else if !bytes.Equal(first, data) {
					t.Fatalf("file %s: replicas diverge after sync (shard %d vs %d)", file, reps[0], shard)
				}
			}
		}
	}

	// Bounded tail latency: p99 across the run (which includes the
	// single-node-failure windows) stays well under a second.
	var all []time.Duration
	for w := range latencies {
		all = append(all, latencies[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	if p99 > time.Second {
		t.Fatalf("p99 op latency %v exceeds 1s during single-node failure", p99)
	}

	// The run must actually have exercised the machinery.
	st := c.Stats()
	if st.Retries == 0 {
		t.Fatalf("chaos run recorded no retries: %+v", st)
	}
	if st.Repairs == 0 {
		t.Fatalf("chaos run recorded no anti-entropy repairs: %+v", st)
	}
	t.Logf("chaos seed %d: puts=%d gets=%d retries=%d fallbacks=%d repairs=%d quorumFails=%d degradedWrites=%d p99=%v",
		seed, st.Puts, st.Gets, st.Retries, st.FallbackReads, st.Repairs, st.QuorumFailures, st.DegradedWrites, p99)
}

// TestChaosCorruptedReplicaNoPlaintext attacks one replica's device
// memory directly and asserts the confidentiality-under-faults contract:
// plaintext never appears in any DRAM (before or after the attack), the
// corrupted replica's tamper latch trips and refuses service, the read
// is served correctly from a healthy replica, and a restart plus Sync
// converges the replica set back to byte-identical.
func TestChaosCorruptedReplicaNoPlaintext(t *testing.T) {
	seed := chaosSeed(t)
	c, err := NewCluster(chaosConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterUser("alice", []byte("alice-key")); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	// A recognisable plaintext: any 64-byte window is unique to it.
	marker := bytes.Repeat([]byte("SHEF-CHAOS-PLAINTEXT-MARKER/"), 200)[:4096]
	const file = "chaos-secret"
	if err := cl.Put("alice", file, marker); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	scanDRAM := func(stage string) {
		t.Helper()
		for i := 0; i < c.Shards(); i++ {
			n := c.Node(i)
			if n == nil {
				continue
			}
			for _, region := range []string{"store", "tls"} {
				layout, err := n.Shield().Layout(region)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, layout.DataSize)
				if err := n.DRAM().RawReadInto(layout.DataBase, buf); err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(buf, marker[:64]) {
					t.Fatalf("%s: plaintext visible in shard %d %s region DRAM", stage, i, region)
				}
			}
		}
	}
	scanDRAM("before corruption")

	// Smash the primary replica's entire store data region with
	// deterministic garbage — every block of every file on it.
	primary := c.replicaSet(file)[0]
	pn := c.Node(primary)
	layout, err := pn.Shield().Layout("store")
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, layout.DataSize)
	faultinject.CorruptBytes(garbage, uint64(seed))
	for i := range garbage {
		garbage[i] ^= byte(i) + 0x5A
	}
	if err := pn.DRAM().RawWrite(layout.DataBase, garbage); err != nil {
		t.Fatal(err)
	}
	// Drop clean buffer lines so the next read must fetch the corrupted
	// ciphertext from DRAM rather than serving cached plaintext.
	pn.Shield().InvalidateClean()

	// The read is served — from a healthy replica — and the bytes are
	// exactly the acknowledged write, never the corruption.
	got, err := cl.Get("alice", file, nil)
	if err != nil {
		t.Fatalf("read with corrupted primary: %v", err)
	}
	if !bytes.Equal(got, marker) {
		t.Fatal("read under corruption returned wrong bytes")
	}
	if st := c.Stats(); st.FallbackReads == 0 {
		t.Fatalf("corrupted primary did not force a fallback: %+v", st)
	}

	// The primary's tamper latch has tripped: it refuses further service
	// rather than serving unauthenticated data.
	if _, err := pn.Get("alice", file); err == nil {
		t.Fatal("corrupted replica still serving (tamper latch did not trip)")
	}

	// Plaintext still nowhere in DRAM after the degraded read.
	scanDRAM("after corruption")

	// Recovery: a latched node cannot be repaired in place — restart it
	// (fresh TEE, same provisioning session) and let anti-entropy refill.
	c.CrashShard(primary)
	if err := c.RestartShard(primary); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("sync after restart: %v", err)
	}
	reps := c.replicaSet(file)
	var first []byte
	for k, shard := range reps {
		data, err := c.Node(shard).Get("alice", file)
		if err != nil {
			t.Fatalf("replica on shard %d unreadable after repair: %v", shard, err)
		}
		if k == 0 {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("replicas diverge after repair (shard %d vs %d)", reps[0], shard)
		}
	}
	if !bytes.Equal(first, marker) {
		t.Fatal("repair converged to the wrong content")
	}
	scanDRAM("after repair")
}
