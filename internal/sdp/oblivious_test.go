package sdp

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/shield"
)

// obliviousNodeConfig keeps the tree small: 8 slots × 8 KB over 4 KB auth
// blocks is a 16-block ORAM per node.
func obliviousNodeConfig() NodeConfig {
	return NodeConfig{
		Slots: 8, SlotBytes: 8 << 10, AuthBlock: 4096,
		Engines: 4, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 16 << 10, Oblivious: true,
	}
}

func TestObliviousNodeValidation(t *testing.T) {
	tiny := obliviousNodeConfig()
	tiny.Slots, tiny.SlotBytes = 1, 4096 // one auth block: no tree to build
	if _, err := NewNode(tiny, bytes.Repeat([]byte{1}, 32), LineRateParams()); err == nil ||
		!strings.Contains(err.Error(), "two auth blocks") {
		t.Fatalf("single-block oblivious node accepted: %v", err)
	}
	if _, err := NewNode(obliviousNodeConfig(), []byte("short"), LineRateParams()); err == nil ||
		!strings.Contains(err.Error(), "DEK") {
		t.Fatalf("short-DEK oblivious node accepted: %v", err)
	}
}

func TestObliviousNodeRoundTrip(t *testing.T) {
	n, err := NewNode(obliviousNodeConfig(), bytes.Repeat([]byte{3}, 32), LineRateParams())
	if err != nil {
		t.Fatal(err)
	}
	n.ProvisionUserKeys(map[string][]byte{"alice": []byte("alice-key"), "bob": []byte("bob-key")})
	payload := bytes.Repeat([]byte("oblivious-file-data."), 300) // ~6 KB, 2 auth blocks
	if err := n.Put("alice", "a.dat", payload); err != nil {
		t.Fatal(err)
	}
	small := []byte("tiny")
	if err := n.Put("bob", "b.dat", small); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get("alice", "a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("oblivious Put/Get round trip corrupted the file")
	}
	got, err = n.Get("bob", "b.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, small) {
		t.Fatal("small-file round trip corrupted")
	}
	// GDPR policy still enforced above the ORAM layer.
	if _, err := n.Get("bob", "a.dat"); err == nil {
		t.Fatal("cross-user access allowed in oblivious mode")
	}
	// Overwrite in place.
	payload2 := bytes.Repeat([]byte("ROTATED!"), 512)
	if err := n.Put("alice", "a.dat", payload2); err != nil {
		t.Fatal(err)
	}
	got, err = n.Get("alice", "a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload2) {
		t.Fatal("overwritten file not returned")
	}
	// The store traffic went through the ORAM: path-shaped accesses and a
	// real amplification factor are visible in the stats.
	acc, moved, maxStash := n.ORAM().Stats()
	if acc == 0 || moved == 0 {
		t.Fatal("oblivious node served traffic without ORAM accesses")
	}
	if amp := n.ORAM().Amplification(); amp < 2 {
		t.Fatalf("amplification %.1fx implausibly low for a path per access", amp)
	}
	if maxStash > 60 {
		t.Fatalf("stash high-water %d breaches the Z=4 bound", maxStash)
	}
	// Plaintext never reaches device memory, even under the ORAM layout.
	dump, err := n.DRAM().RawRead(0, int(obliviousNodeConfig().storeSize()))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(dump, []byte("oblivious-file-data")) || bytes.Contains(dump, []byte("ROTATED!")) {
		t.Fatal("plaintext visible beneath the oblivious store")
	}
}

// TestObliviousCluster drives the Table 2 cluster in oblivious storage-node
// mode: concurrent Put/Get through ORAM-backed regions across shards.
func TestObliviousCluster(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, Node: obliviousNodeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterUser("u", []byte("u-key")); err != nil {
		t.Fatal(err)
	}
	const workers, files = 4, 3
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		cl := newClient(t, c)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < files; f++ {
				name := fmt.Sprintf("w%d-f%d", w, f)
				payload := bytes.Repeat([]byte{byte(w*16 + f)}, 5000)
				if err := cl.Put("u", name, payload); err != nil {
					errs[w] = err
					return
				}
				got, err := cl.Get("u", name, nil)
				if err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(got, payload) {
					errs[w] = fmt.Errorf("file %s corrupted", name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// A shard can legitimately fill up under hash skew; anything
			// else is a real failure.
			if strings.Contains(err.Error(), "node full") {
				continue
			}
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.ORAMAccesses == 0 || st.ORAMBytesMoved == 0 {
		t.Fatalf("cluster stats carry no ORAM traffic: %+v", st)
	}
}
