package sdp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func clusterConfig(shards int) ClusterConfig {
	// Smaller slots but many more of them than smallConfig: hash routing is
	// uneven, so any one shard may receive well above its fair share.
	node := smallConfig()
	node.Slots = 32
	node.SlotBytes = 16 << 10
	return ClusterConfig{Shards: shards, Node: node}
}

func newCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := NewCluster(clusterConfig(shards))
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

// newClient opens a Data Owner endpoint onto c: the one request path
// every cluster test drives.
func newClient(t testing.TB, c *Cluster) *Client {
	t.Helper()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestClusterPutGetRoundTrip(t *testing.T) {
	c := newCluster(t, 4)
	cl := newClient(t, c)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("file-%d", i)
		payload := bytes.Repeat([]byte{byte(i + 1)}, 3000+i*100)
		if err := cl.Put("alice", name, payload); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Get("alice", name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("file %q corrupted through the cluster", name)
		}
	}
	st := c.Stats()
	if st.Puts != 8 || st.Gets != 8 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClusterShardingIsStableAndSpread(t *testing.T) {
	c := newCluster(t, 4)
	seen := make(map[int]int)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("file-%d", i)
		s := c.ShardFor(name)
		if s != c.ShardFor(name) {
			t.Fatal("shard routing not deterministic")
		}
		if s < 0 || s >= c.Shards() {
			t.Fatalf("shard %d out of range", s)
		}
		seen[s]++
	}
	if len(seen) < 3 {
		t.Fatalf("64 files landed on only %d of 4 shards: %v", len(seen), seen)
	}
}

func TestClusterPolicyAcrossShards(t *testing.T) {
	c := newCluster(t, 3)
	cl := newClient(t, c)
	if err := cl.Put("alice", "secret", []byte("alice's record")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("bob", "secret", nil); err == nil {
		t.Fatal("bob read alice's file through the cluster")
	}
	if _, err := cl.Get("mallory", "secret", nil); err == nil {
		t.Fatal("unregistered user served")
	}
	if c.Stats().Errors != 2 {
		t.Fatalf("errors = %d, want 2", c.Stats().Errors)
	}
}

func TestClusterLateRegistrationReachesAllShards(t *testing.T) {
	c := newCluster(t, 4)
	if err := c.RegisterUser("carol", []byte("carol-key")); err != nil {
		t.Fatal(err)
	}
	// Write one file per shard so every node must know carol.
	cl := newClient(t, c)
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("carol-%d", i)
		if err := cl.Put("carol", name, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSealedKeyDBRejectsSplice(t *testing.T) {
	c := newCluster(t, 2)
	// A database sealed for shard 0 must not install on shard 1, even if
	// the operator relays it byte-for-byte.
	db, err := c.ctrl.sealKeyDB(0, c.slots[0].dek)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(1).InstallSealedUserKeys(1, db); err == nil {
		t.Fatal("shard 1 accepted a database sealed for shard 0")
	}
	// Bit flips are caught.
	db2, _ := c.ctrl.sealKeyDB(0, c.slots[0].dek)
	for _, i := range []int{len(db2.Sealed) / 2, len(db2.Sealed) - 1} { // body, tag
		db2.Sealed[i] ^= 1
		if err := c.Node(0).InstallSealedUserKeys(0, db2); err == nil {
			t.Fatal("tampered key database installed")
		}
		db2.Sealed[i] ^= 1
	}
	db2.Sealed = db2.Sealed[:len(db2.Sealed)-1]
	if err := c.Node(0).InstallSealedUserKeys(0, db2); err == nil {
		t.Fatal("truncated key database installed")
	}
}

// TestClusterConcurrentPutGet drives many goroutines against all shards at
// once; run under -race this is the data-path concurrency check for the
// serving tier.
func TestClusterConcurrentPutGet(t *testing.T) {
	c := newCluster(t, 4)
	const workers = 8
	const filesPerWorker = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers*filesPerWorker*2)
	for w := 0; w < workers; w++ {
		cl := newClient(t, c)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < filesPerWorker; i++ {
				name := fmt.Sprintf("w%d-f%d", w, i)
				payload := bytes.Repeat([]byte{byte(w*16 + i + 1)}, 2048)
				if err := cl.Put("alice", name, payload); err != nil {
					errCh <- err
					return
				}
				got, err := cl.Get("alice", name, nil)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errCh <- fmt.Errorf("file %q corrupted under concurrency", name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Puts != workers*filesPerWorker || st.Gets != workers*filesPerWorker {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyCycles == 0 || st.MaxBusy == 0 {
		t.Fatal("no simulated busy time accounted")
	}
}

// TestClusterConcurrentMixedUsers mixes users and overwrites under load so
// the per-node directory and user-key paths race-test too.
func TestClusterConcurrentMixedUsers(t *testing.T) {
	c := newCluster(t, 2)
	users := []string{"alice", "bob"}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		cl := newClient(t, c)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u := users[w%2]
			name := fmt.Sprintf("shared-%d", w%4) // collide on purpose
			for i := 0; i < 3; i++ {
				payload := bytes.Repeat([]byte{byte(w + 1)}, 1024)
				// Overwrites by the other user are policy-rejected; both
				// outcomes are fine — the invariant is no race, no torn data.
				if err := cl.Put(u, name, payload); err != nil {
					continue
				}
				if got, err := cl.Get(u, name, nil); err == nil && len(got) != 1024 {
					panic("torn read")
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkClusterPutGet drives concurrent Put/Get pairs through a
// four-shard cluster — the storage-tier hot path, with the deterministic
// simulated throughput (ops over the busiest shard's cycles) as the
// CI-gated metric.
func BenchmarkClusterPutGet(b *testing.B) {
	c, err := NewCluster(clusterConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterUser("alice", []byte("alice-key")); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	c.ResetStats()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl, err := c.NewClient()
		if err != nil {
			b.Error(err)
			return
		}
		var dst []byte
		i := 0
		for pb.Next() {
			name := fmt.Sprintf("bench-%d", i%32)
			if err := cl.Put("alice", name, payload); err != nil {
				b.Error(err)
				return
			}
			if dst, err = cl.Get("alice", name, dst); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	st := c.Stats()
	ops := st.Puts + st.Gets
	if st.MaxBusy > 0 {
		simSec := float64(st.MaxBusy) / 250e6
		b.ReportMetric(float64(ops)/simSec, "sim-ops/sec")
	}
}
