package sdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"shef/internal/faultinject"
	"shef/internal/profiling"
)

// replicatedConfig is the resilience-test geometry: 4 shards, 3-way
// replication (write quorum 2 — tolerates one failed shard for both
// reads and writes), write-through so every acknowledged byte is sealed
// to DRAM before the ack, and fast retry timing so tests stay quick.
func replicatedConfig(shards, replicas int) ClusterConfig {
	cfg := clusterConfig(shards)
	cfg.Replicas = replicas
	cfg.Retry = RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        1,
	}
	cfg.OpTimeout = 5 * time.Second
	return cfg
}

func newReplicatedCluster(t *testing.T, shards, replicas int) *Cluster {
	t.Helper()
	c, err := NewCluster(replicatedConfig(shards, replicas))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob"} {
		if err := c.RegisterUser(u, []byte(u+"-key")); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestReplicatedPutLandsOnAllReplicas(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	payload := bytes.Repeat([]byte{0x5A}, 3000)
	if err := newClient(t, c).Put("alice", "doc", payload); err != nil {
		t.Fatal(err)
	}
	for _, shard := range c.replicaSet("doc") {
		got, err := c.Node(shard).Get("alice", "doc")
		if err != nil {
			t.Fatalf("replica %d: %v", shard, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("replica %d holds divergent bytes", shard)
		}
	}
	// Non-replica shards must not hold it.
	reps := map[int]bool{}
	for _, s := range c.replicaSet("doc") {
		reps[s] = true
	}
	for i := 0; i < c.Shards(); i++ {
		if reps[i] {
			continue
		}
		if _, err := c.Node(i).Get("alice", "doc"); err == nil {
			t.Fatalf("non-replica shard %d holds the file", i)
		}
	}
}

func TestReplicaSetPlacement(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	reps := c.replicaSet("doc")
	if len(reps) != 3 {
		t.Fatalf("replica set size %d, want 3", len(reps))
	}
	home := c.ShardFor("doc")
	for k, s := range reps {
		if s != (home+k)%4 {
			t.Fatalf("replica %d = shard %d, want successor %d", k, s, (home+k)%4)
		}
	}
}

// TestSingleCopyReplicaPathZeroAlloc: the replica machinery itself —
// routing, read order, write quorum, health gate — adds no allocation to
// a single-copy operation, so the node's own buffers stay the only
// per-operation garbage.
func TestSingleCopyReplicaPathZeroAlloc(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	nop := func(int, *Node, faultinject.Result) error { return nil }
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.writeReplicas(ctx, "alice", "doc", nop); err != nil {
			t.Fatal(err)
		}
		if err := c.readReplicas(ctx, "doc", nop); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("single-copy write+read through the replica path allocates %.1f/op, want 0", allocs)
	}
}

// TestDegradedReadAfterCrash: crash the primary; reads must fall back to
// a successor replica and stats must show it.
func TestDegradedReadAfterCrash(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl := newClient(t, c)
	payload := bytes.Repeat([]byte{0x11}, 2048)
	if err := cl.Put("alice", "doc", payload); err != nil {
		t.Fatal(err)
	}
	primary := c.ShardFor("doc")
	c.CrashShard(primary)
	got, err := cl.Get("alice", "doc", nil)
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read returned wrong bytes")
	}
	st := c.Stats()
	if st.FallbackReads == 0 {
		t.Fatalf("stats show no fallback reads: %+v", st)
	}
	if st.DownShards != 1 {
		t.Fatalf("DownShards = %d, want 1", st.DownShards)
	}
}

// TestDegradedWriteAtQuorum: with one of three replicas crashed, writes
// still acknowledge (quorum 2) and are counted as degraded.
func TestDegradedWriteAtQuorum(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	reps := c.replicaSet("doc")
	c.CrashShard(reps[1])
	if err := newClient(t, c).Put("alice", "doc", []byte("quorum write")); err != nil {
		t.Fatalf("write with 2/3 replicas up failed: %v", err)
	}
	if st := c.Stats(); st.DegradedWrites == 0 {
		t.Fatalf("degraded write not counted: %+v", st)
	}
	// Both surviving replicas hold it.
	for _, shard := range []int{reps[0], reps[2]} {
		if _, err := c.Node(shard).Get("alice", "doc"); err != nil {
			t.Fatalf("surviving replica %d missing acked write: %v", shard, err)
		}
	}
}

// TestQuorumLost: two of three replicas down kills the write quorum; the
// caller gets the typed error.
func TestQuorumLost(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	reps := c.replicaSet("doc")
	c.CrashShard(reps[0])
	c.PartitionShard(reps[1])
	err := newClient(t, c).Put("alice", "doc", []byte("doomed"))
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("quorum error should carry the shard-down cause: %v", err)
	}
	if st := c.Stats(); st.QuorumFailures == 0 {
		t.Fatalf("quorum failure not counted: %+v", st)
	}
}

// TestRestartAndAntiEntropyRepair: crash a replica, keep writing, restart
// it, Sync — the restarted replica must converge to byte-identical state.
func TestRestartAndAntiEntropyRepair(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl := newClient(t, c)
	payloadA := bytes.Repeat([]byte{0xA1}, 4096)
	if err := cl.Put("alice", "doc", payloadA); err != nil {
		t.Fatal(err)
	}
	reps := c.replicaSet("doc")
	c.CrashShard(reps[1])
	// Overwrite while the replica is dead: the survivors advance.
	payloadB := bytes.Repeat([]byte{0xB2}, 5000)
	if err := cl.Put("alice", "doc", payloadB); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartShard(reps[1]); err != nil {
		t.Fatal(err)
	}
	// Fresh node: file is gone until anti-entropy repairs it.
	if _, err := c.Node(reps[1]).Get("alice", "doc"); err == nil {
		t.Fatal("restarted shard should come back empty")
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("sync/repair: %v", err)
	}
	got, err := c.Node(reps[1]).Get("alice", "doc")
	if err != nil {
		t.Fatalf("repaired replica unreadable: %v", err)
	}
	if !bytes.Equal(got, payloadB) {
		t.Fatal("repair converged to the wrong version")
	}
	if st := c.Stats(); st.Repairs == 0 {
		t.Fatalf("repair not counted: %+v", st)
	}
}

// TestAntiEntropyRepairsInNameOrder: anti-entropy repairs files in
// sorted name order, so a chaos run's fault schedule hits the same file
// seed for seed. A restarted node comes back empty and reserve hands out
// its slots in the order the repairs arrive, so the node's slot order is
// the repair order.
func TestAntiEntropyRepairsInNameOrder(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl := newClient(t, c)
	const shard, files = 1, 12
	var names []string
	for i := 0; len(names) < files; i++ {
		name := fmt.Sprintf("file-%03d", 997*i%1000)
		if !slices.Contains(c.replicaSet(name), shard) {
			continue
		}
		if err := cl.Put("alice", name, []byte(name)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	c.CrashShard(shard)
	if err := c.RestartShard(shard); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	dir := c.Node(shard).directory
	bySlot := slices.Clone(names)
	slices.SortFunc(bySlot, func(a, b string) int { return dir[a].slot - dir[b].slot })
	if want := slices.Sorted(slices.Values(names)); !slices.Equal(bySlot, want) {
		t.Fatalf("restarted shard's slots hold %v, want repair in name order %v", bySlot, want)
	}
	if got := len(dir); got != files {
		t.Fatalf("restarted shard holds %d files after Sync, want %d", got, files)
	}
}

// TestPartitionHeal: a partitioned shard keeps its state; after heal plus
// Sync it serves again and converges on writes it missed.
func TestPartitionHeal(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl := newClient(t, c)
	if err := cl.Put("alice", "doc", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	reps := c.replicaSet("doc")
	c.PartitionShard(reps[2])
	if err := cl.Put("alice", "doc", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	// Register a user while the shard is unreachable: it must learn the
	// key at heal time.
	if err := c.RegisterUser("carol", []byte("carol-key")); err != nil {
		t.Fatal(err)
	}
	if err := c.HealShard(reps[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(reps[2]).Get("alice", "doc")
	if err != nil || string(got) != "v2-longer" {
		t.Fatalf("healed replica = %q, %v; want v2-longer", got, err)
	}
	// The healed shard knows carol (key DB re-pushed at heal).
	if err := c.Node(reps[2]).Put("carol", "carol-file", []byte("x")); err != nil {
		t.Fatalf("healed shard missing late-registered user: %v", err)
	}
}

// TestHealthFSMTransitions drives the detector through its full cycle.
func TestHealthFSMTransitions(t *testing.T) {
	var h healthFSM
	if h.State() != Healthy {
		t.Fatal("zero value should be Healthy")
	}
	h.failure()
	if h.State() != Healthy {
		t.Fatal("one failure should not suspect")
	}
	h.failure()
	if h.State() != Suspect {
		t.Fatalf("state after %d failures = %v, want Suspect", suspectAfter, h.State())
	}
	h.success()
	if h.State() != Healthy {
		t.Fatal("success in Suspect should clear to Healthy")
	}
	for i := 0; i < downAfter; i++ {
		h.failure()
	}
	if h.State() != Down {
		t.Fatalf("state after %d failures = %v, want Down", downAfter, h.State())
	}
	// Down: gated except the periodic probe.
	allowed := 0
	for i := 0; i < probeEvery; i++ {
		if h.allowOp() {
			allowed++
		}
	}
	if allowed != 1 {
		t.Fatalf("Down allowed %d/%d ops, want exactly 1 probe", allowed, probeEvery)
	}
	h.success()
	if h.State() != Recovering {
		t.Fatal("probe success should move Down → Recovering")
	}
	h.failure()
	if h.State() != Down {
		t.Fatal("failure in Recovering should fall straight back Down")
	}
	h.success()
	for i := 1; i < recoverAfter; i++ {
		h.success()
	}
	if h.State() != Healthy {
		t.Fatalf("state after %d recovery successes = %v, want Healthy", recoverAfter, h.State())
	}
}

// TestHealthGateSkipsDownShard: after a crash takes the detector Down,
// reads stop paying for the dead primary (no per-op retry storm) and the
// periodic probe discovers the restart without operator involvement
// beyond RestartShard's own marking — tested here via the raw FSM path by
// NOT using RestartShard's markRecovering.
func TestHealthGateSkipsDownShard(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl := newClient(t, c)
	if err := cl.Put("alice", "doc", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	primary := c.ShardFor("doc")
	c.CrashShard(primary)
	// Drive the detector Down with a few reads.
	for i := 0; i < downAfter+1; i++ {
		if _, err := cl.Get("alice", "doc", nil); err != nil {
			t.Fatalf("degraded read %d failed: %v", i, err)
		}
	}
	if got := c.slots[primary].health.State(); got != Down {
		t.Fatalf("primary health = %v, want Down", got)
	}
	retriesBefore := c.Stats().Retries
	for i := 0; i < 8; i++ {
		if _, err := cl.Get("alice", "doc", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Gated shard: fallbacks continue but no retry budget is burned on it
	// (ErrShardDown short-circuits the retry loop).
	if got := c.Stats().Retries; got != retriesBefore {
		t.Fatalf("down shard still consumed %d retries", got-retriesBefore)
	}
}

// TestInjectedTransientErrorsAreRetried: a fault plan that fails a
// fraction of put attempts must be absorbed by the retry loop.
func TestInjectedTransientErrorsAreRetried(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	faultinject.Activate(&faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Target: FaultSitePut, Shard: faultinject.AnyShard, Kind: faultinject.KindError, Prob: 0.25},
	}})
	defer faultinject.Deactivate()
	cl := newClient(t, c)
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("file-%d", i)
		if err := cl.Put("alice", name, []byte("flaky fabric")); err != nil {
			t.Fatalf("put %d not absorbed: %v", i, err)
		}
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded under a 25%% error plan: %+v", st)
	}
}

// TestAppRejectionsAreNotRetried: every rejection a Client can reach is
// classed ErrRejected and surfaces at once, with replication on: no
// retry, no degraded write, no health penalty.
func TestAppRejectionsAreNotRetried(t *testing.T) {
	payload := bytes.Repeat([]byte{0x4E}, 5000) // two 4 KiB auth blocks
	put := func(user, name string) func(*Client) error {
		return func(cl *Client) error { return cl.Put(user, name, payload) }
	}
	get := func(user, name string) func(*Client) error {
		return func(cl *Client) error { _, err := cl.Get(user, name, nil); return err }
	}
	// putSealed sends an image of the first n payload bytes of doc,
	// sealed on its home session, claiming size bytes.
	putSealed := func(n, size int) func(*Client) error {
		return func(cl *Client) error {
			ct, tags, err := cl.Session("doc").Seal(payload[:n])
			if err != nil {
				return err
			}
			return cl.PutSealed("alice", "doc", size, ct, tags)
		}
	}
	flat := func(*NodeConfig) {}
	for _, tc := range []struct {
		name  string
		node  func(*NodeConfig)
		setup func(*Client) error // runs before the stats reset
		op    func(*Client) error
	}{
		{"unprovisioned user, Put", flat, nil, put("mallory", "doc")},
		{"unprovisioned user, Get", flat, put("alice", "doc"), get("mallory", "doc")},
		{"node full", func(c *NodeConfig) { c.Slots = 1 }, put("alice", "a"), put("alice", "b")},
		{"owner mismatch, Get", flat, put("alice", "doc"), get("bob", "doc")},
		{"owner mismatch, Put", flat, put("alice", "doc"), put("bob", "doc")},
		{"file not found", flat, nil, get("alice", "doc")},
		{"tenant zone full", func(c *NodeConfig) { c.TenantZones, c.TenantSlots = true, 1 },
			put("alice", "a"), put("alice", "b")},
		{"no free tenant zone", func(c *NodeConfig) { c.Slots, c.TenantZones, c.TenantSlots = 1, true, 1 },
			put("alice", "a"), put("bob", "b")},
		{"oversized image, PutSealed", flat, nil, putSealed(100, clusterConfig(1).Node.SlotBytes+1)},
		{"wrong-size image, PutSealed", flat, nil, putSealed(100, len(payload))},
		{"image longer than its size, PutSealed", flat, nil, putSealed(len(payload), 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := replicatedConfig(4, 3)
			tc.node(&cfg.Node)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range []string{"alice", "bob"} {
				if err := c.RegisterUser(u, []byte(u+"-key")); err != nil {
					t.Fatal(err)
				}
			}
			cl := newClient(t, c)
			if tc.setup != nil {
				if err := tc.setup(cl); err != nil {
					t.Fatal(err)
				}
			}
			c.ResetStats()
			err = tc.op(cl)
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("err = %v, want ErrRejected", err)
			}
			if st := c.Stats(); st.Retries != 0 || st.DegradedWrites != 0 {
				t.Fatalf("rejection consumed retries or degraded a write: %+v", st)
			}
			for i, slot := range c.slots {
				if got := slot.health.State(); got != Healthy {
					t.Fatalf("shard %d health = %v after a rejection", i, got)
				}
			}
		})
	}
}

// TestShardErrorIdentity: every cluster-level failure names its shard —
// on a single-copy cluster with fault injection off too, through every
// public operation, whether the home shard is crashed or partitioned.
// Single-copy failures carry the replicated path's typed errors: a write
// loses its quorum, a read degrades.
func TestShardErrorIdentity(t *testing.T) {
	faults := []struct {
		name  string
		apply func(c *Cluster, shard int)
	}{
		{"crash", (*Cluster).CrashShard},
		{"partition", (*Cluster).PartitionShard},
	}
	payload := bytes.Repeat([]byte{0x42}, 1500)
	ops := []struct {
		name string
		want error
		do   func(cl *Client, ct, tags []byte) error
	}{
		{"Client.Put", ErrQuorumLost, func(cl *Client, _, _ []byte) error {
			return cl.Put("alice", "doc", payload)
		}},
		{"Client.Get", ErrDegraded, func(cl *Client, _, _ []byte) error {
			_, err := cl.Get("alice", "doc", nil)
			return err
		}},
		{"Client.PutSealed", ErrQuorumLost, func(cl *Client, ct, tags []byte) error {
			return cl.PutSealed("alice", "doc", len(payload), ct, tags)
		}},
		{"Client.GetSealed", ErrDegraded, func(cl *Client, _, _ []byte) error {
			_, _, err := cl.GetSealed("alice", "doc")
			return err
		}},
	}
	for _, f := range faults {
		for _, op := range ops {
			t.Run(f.name+"/"+op.name, func(t *testing.T) {
				c := newReplicatedCluster(t, 4, 1)
				cl, err := c.NewClient()
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Put("alice", "doc", payload); err != nil {
					t.Fatal(err)
				}
				ct, tags, err := cl.Session("doc").Seal(payload)
				if err != nil {
					t.Fatal(err)
				}
				ct, tags = bytes.Clone(ct), bytes.Clone(tags)
				home := c.ShardFor("doc")
				f.apply(c, home)
				err = op.do(cl, ct, tags)
				if !errors.Is(err, ErrShardDown) || !errors.Is(err, op.want) {
					t.Fatalf("err = %v, want %v wrapping %v", err, op.want, ErrShardDown)
				}
				var se *ShardError
				if !errors.As(err, &se) {
					t.Fatalf("cluster error carries no shard identity: %v", err)
				}
				if se.Shard != home {
					t.Fatalf("shard identity = %d, want %d", se.Shard, home)
				}
				wantLost := uint64(0)
				if op.want == ErrQuorumLost {
					wantLost = 1
				}
				if st := c.Stats(); st.QuorumFailures != wantLost {
					t.Fatalf("QuorumFailures = %d, want %d", st.QuorumFailures, wantLost)
				}
			})
		}
	}
}

// TestContextCancellation: a canceled context stops the operation with
// the context's error.
func TestContextCancellation(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cl := newClient(t, c)
	if err := cl.PutCtx(ctx, "alice", "doc", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := cl.GetCtx(ctx, "alice", "doc", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBackoffDeterministicAndCapped: the jittered schedule is a pure
// function of the seed, grows with attempts, and respects the cap.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	mk := func() *Cluster {
		c := &Cluster{cfg: ClusterConfig{Retry: RetryPolicy{
			MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 7,
		}}}
		seed := uint64(7)
		c.rng.Store(seed*0x9e3779b97f4a7c15 + 1)
		return c
	}
	a, b := mk(), mk()
	for attempt := 0; attempt < 8; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: %v vs %v — jitter not deterministic", attempt, da, db)
		}
		if da > 20*time.Millisecond {
			t.Fatalf("attempt %d: %v exceeds the cap", attempt, da)
		}
		if da < time.Millisecond {
			t.Fatalf("attempt %d: %v below base/2", attempt, da)
		}
	}
}

// TestClientReplicatedRoundTrip: the sealed client path (per-replica
// sessions) survives a primary crash mid-workload.
// TestProfiledOpsMatchUnprofiled: under an active profiling harness every
// replicated Put and Get runs through doOp, inside its pprof labels. The
// labels change nothing: one scenario — a Put and a Get of a missing
// file, then with the home shard crashed a fallback Get, a degraded re-Put
// and its Get, then restart and anti-entropy — returns the same bytes,
// the same error and the same ClusterStats with profiling on as with it
// off. The test is not parallel: the harness is process-wide.
func TestProfiledOpsMatchUnprofiled(t *testing.T) {
	run := func() (ClusterStats, []byte, error) {
		c := newReplicatedCluster(t, 4, 3)
		cl := newClient(t, c)
		v1, v2 := bytes.Repeat([]byte{0x3C}, 6000), bytes.Repeat([]byte{0x4D}, 6000)
		if err := cl.Put("alice", "doc", v1); err != nil {
			t.Fatal(err)
		}
		_, missing := cl.Get("alice", "nope", nil)
		c.CrashShard(c.ShardFor("doc"))
		got1, err := cl.Get("alice", "doc", nil)
		if err != nil || !bytes.Equal(got1, v1) {
			t.Fatalf("fallback Get: %v", err)
		}
		if err := cl.Put("alice", "doc", v2); err != nil {
			t.Fatalf("degraded Put: %v", err)
		}
		got2, err := cl.Get("alice", "doc", nil)
		if err != nil || !bytes.Equal(got2, v2) {
			t.Fatalf("Get after the degraded Put: %v", err)
		}
		if err := c.RestartShard(c.ShardFor("doc")); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		return c.Stats(), append(got1, got2...), missing
	}

	off, offGot, offErr := run()
	if off.DegradedWrites == 0 || off.FallbackReads == 0 || off.Repairs == 0 {
		t.Fatalf("scenario did not degrade, fall back and repair: %+v", off)
	}
	if !errors.Is(offErr, ErrRejected) {
		t.Fatalf("Get of a missing file: err = %v, want ErrRejected", offErr)
	}
	h, err := profiling.Start(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	on, onGot, onErr := run()
	if err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	if on != off {
		t.Errorf("ClusterStats with profiling %+v, without %+v", on, off)
	}
	if !bytes.Equal(onGot, offGot) {
		t.Error("profiled Get returned different bytes")
	}
	if onErr == nil || onErr.Error() != offErr.Error() {
		t.Errorf("profiled Get of a missing file: err = %v, want %v", onErr, offErr)
	}
}

// TestShardLabel: indices below 16 use the interned labels, and every
// other index, past the table or negative, formats as its decimal.
func TestShardLabel(t *testing.T) {
	for _, i := range []int{0, 7, 15, 16, 17, 100, 1 << 20, -1} {
		if got, want := shardLabel(i), fmt.Sprint(i); got != want {
			t.Errorf("shardLabel(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestClientReplicatedRoundTrip(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x77}, 6000)
	if err := cl.Put("alice", "doc", payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get("alice", "doc", nil)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip before crash: %v", err)
	}
	c.CrashShard(c.ShardFor("doc"))
	got, err = cl.Get("alice", "doc", nil)
	if err != nil {
		t.Fatalf("degraded client read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded client read returned wrong bytes")
	}
	// Writes still land at quorum; the crashed primary is skipped.
	if err := cl.Put("alice", "doc2", payload); err != nil {
		t.Fatalf("degraded client write: %v", err)
	}
}

// TestClientPutSealedReplicated: the home shard stores the caller's
// sealed image byte for byte, each follower holds its own re-seal under
// its session, and every replica serves the payload. The caller's
// buffers come back untouched — even when they are the home session's
// own staging buffers and an injected fault corrupts the home write.
func TestClientPutSealedReplicated(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x6B}, 5000)
	sealed, sealedTags, err := cl.Session("doc").Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	ct, tags := bytes.Clone(sealed), bytes.Clone(sealedTags)
	if err := cl.PutSealed("alice", "doc", len(payload), ct, tags); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct, sealed) || !bytes.Equal(tags, sealedTags) {
		t.Fatal("PutSealed wrote to the caller's image")
	}
	home := c.ShardFor("doc")
	for _, shard := range c.replicaSet("doc") {
		// The Put's DMA left the stored image in the tls extent; read it
		// before a Get restages that extent.
		n := c.Node(shard)
		img, imgTags := make([]byte, len(ct)), make([]byte, len(tags))
		if err := n.DRAM().RawReadInto(n.tlsLayout.DataBase, img); err != nil {
			t.Fatal(err)
		}
		if err := n.DRAM().RawReadInto(n.tlsLayout.TagBase, imgTags); err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(img, ct) && bytes.Equal(imgTags, tags)
		if shard == home && !same {
			t.Fatalf("home shard %d does not hold the caller's image", shard)
		}
		if shard != home {
			if same {
				t.Fatalf("follower %d holds the home session's image, not its own seal", shard)
			}
			got, err := cl.sessions[shard].Open(nil, img, imgTags, len(payload))
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("follower %d image does not open under its session: %v", shard, err)
			}
		}
		got, err := n.Get("alice", "doc")
		if err != nil {
			t.Fatalf("replica %d: %v", shard, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("replica %d holds divergent bytes", shard)
		}
	}

	faultinject.Activate(&faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Target: FaultSitePut, Shard: home, Kind: faultinject.KindCorrupt, Prob: 1},
	}})
	defer faultinject.Deactivate()
	if err := cl.PutSealed("alice", "doc", len(payload), sealed, sealedTags); err != nil {
		t.Fatalf("write with a corrupting home link: %v", err)
	}
	if !bytes.Equal(sealed, ct) || !bytes.Equal(sealedTags, tags) {
		t.Fatal("an injected corruption mangled the caller's image")
	}
	if st := c.Stats(); st.DegradedWrites != 1 {
		t.Fatalf("home write was not refused: %+v", st)
	}
}

// TestClientSessionsSurviveRestart: a restarted shard resumes the same
// session DEK, so a client built before the crash keeps working against
// the replacement node.
func TestClientSessionsSurviveRestart(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x3C}, 2048)
	if err := cl.Put("alice", "doc", payload); err != nil {
		t.Fatal(err)
	}
	primary := c.ShardFor("doc")
	c.CrashShard(primary)
	if err := c.RestartShard(primary); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get("alice", "doc", nil)
	if err != nil {
		t.Fatalf("old client against restarted shard: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("old client read wrong bytes from restarted shard")
	}
}

// TestCorruptedReplicaReadFallsBack: injected read-side corruption fails
// authentication at the client session and the read falls back — the
// corrupted bytes are never returned.
func TestCorruptedReplicaReadFallsBack(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xEE}, 4096)
	if err := cl.Put("alice", "doc", payload); err != nil {
		t.Fatal(err)
	}
	primary := c.ShardFor("doc")
	// Corrupt every response from the primary, in perpetuity.
	faultinject.Activate(&faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Target: FaultSiteGet, Shard: primary, Kind: faultinject.KindCorrupt, Prob: 1},
	}})
	defer faultinject.Deactivate()
	got, err := cl.Get("alice", "doc", nil)
	if err != nil {
		t.Fatalf("read with corrupted primary: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("corrupted bytes reached the caller")
	}
	if st := c.Stats(); st.FallbackReads == 0 {
		t.Fatalf("corruption did not force a fallback: %+v", st)
	}
}

// TestEmptyPayloadRejected: an empty file is an application rejection on
// every Put path — the node's own, the sealing Client's and the pre-sealed
// Client's. It burns no retries, leaves the home shard healthy and
// stores nothing, and a valid Put right after it acknowledges.
func TestEmptyPayloadRejected(t *testing.T) {
	paths := []struct {
		name string
		put  func(c *Cluster, cl *Client, home int) error
	}{
		{"Node.Put", func(c *Cluster, _ *Client, home int) error {
			return c.Node(home).Put("alice", "doc", nil)
		}},
		{"Client.Put", func(_ *Cluster, cl *Client, _ int) error {
			return cl.Put("alice", "doc", nil)
		}},
		{"Client.PutSealed", func(_ *Cluster, cl *Client, _ int) error {
			return cl.PutSealed("alice", "doc", 0, nil, nil)
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			c := newReplicatedCluster(t, 2, 1)
			cl := newClient(t, c)
			home := c.ShardFor("doc")
			retries := c.Stats().Retries
			// Twice: two failures counted against the home shard would
			// take it suspect, then down.
			for i := 0; i < 2; i++ {
				if err := p.put(c, cl, home); !errors.Is(err, ErrRejected) {
					t.Fatalf("empty put %d: err = %v, want ErrRejected", i, err)
				}
			}
			if _, err := cl.Get("alice", "doc", nil); !errors.Is(err, ErrRejected) {
				t.Fatalf("get after empty puts: err = %v, want ErrRejected (not found)", err)
			}
			if got := c.Stats().Retries; got != retries {
				t.Fatalf("empty puts consumed %d retries", got-retries)
			}
			if got := c.slots[home].health.State(); got != Healthy {
				t.Fatalf("home shard health = %v after empty puts, want healthy", got)
			}
			payload := []byte("after the empty puts")
			if err := cl.Put("alice", "doc", payload); err != nil {
				t.Fatalf("valid put after empty puts: %v", err)
			}
			got, err := cl.Get("alice", "doc", nil)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("round trip after empty puts: %q, %v", got, err)
			}
		})
	}
}

// TestNewClientDuringOutage: a Client opens while a shard is crashed —
// its session needs only the shard's stable DEK and the node geometry —
// serves degraded traffic, and after the restart and Sync reads the
// restarted shard through the session it opened while that shard was
// down.
func TestNewClientDuringOutage(t *testing.T) {
	c := newReplicatedCluster(t, 4, 3)
	reps := c.replicaSet("doc")
	primary := reps[0]
	c.CrashShard(primary)
	cl, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient with shard %d crashed: %v", primary, err)
	}
	payload := bytes.Repeat([]byte{0x5D}, 3000)
	if err := cl.Put("alice", "doc", payload); err != nil {
		t.Fatalf("degraded put: %v", err)
	}
	if got, err := cl.Get("alice", "doc", nil); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("degraded get: %v", err)
	}
	if st := c.Stats(); st.DegradedWrites != 1 {
		t.Fatalf("DegradedWrites = %d, want 1", st.DegradedWrites)
	}
	if err := c.RestartShard(primary); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// Only the restarted shard is left to serve the read.
	c.CrashShard(reps[1])
	c.CrashShard(reps[2])
	got, err := cl.Get("alice", "doc", nil)
	if err != nil {
		t.Fatalf("read through the restarted shard: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("restarted shard served the wrong bytes")
	}
}

// TestHealthStateText names each health state, and a value outside them
// as unknown.
func TestHealthStateText(t *testing.T) {
	for s, want := range map[HealthState]string{
		Healthy: "healthy", Suspect: "suspect", Down: "down", Recovering: "recovering", Recovering + 1: "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("HealthState(%d) = %q, want %q", int(s), got, want)
		}
	}
}
