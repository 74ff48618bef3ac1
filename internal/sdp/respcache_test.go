package sdp

import (
	"bytes"
	"errors"
	"testing"

	"shef/internal/shield"
)

// respImage is the cached size of a one-auth-block file: its ciphertext
// chunk plus its tag.
const respImage = 4096 + shield.TagSize

// newCacheNode is newNode with a sealed-response cache of budget bytes.
func newCacheNode(t *testing.T, budget int) *Node {
	t.Helper()
	cfg := smallConfig()
	cfg.ResponseCacheBytes = budget
	n, err := NewNode(cfg, bytes.Repeat([]byte{0x21}, 32), LineRateParams())
	if err != nil {
		t.Fatal(err)
	}
	n.ProvisionUserKeys(map[string][]byte{
		"alice": []byte("alice-key"),
		"bob":   []byte("bob-key"),
	})
	return n
}

// wantRespStats checks the cache's hit and miss counts.
func wantRespStats(t *testing.T, n *Node, hits, misses uint64) {
	t.Helper()
	if h, m, _ := n.RespCacheStats(); h != hits || m != misses {
		t.Fatalf("response cache hits/misses = %d/%d, want %d/%d", h, m, hits, misses)
	}
}

// getWant reads name as alice and checks the payload.
func getWant(t *testing.T, n *Node, name string, want []byte) {
	t.Helper()
	got, err := n.Get("alice", name)
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("get %s returned the wrong bytes", name)
	}
}

// TestRespCacheAuthorisesBeforeServing: a warm entry is served only to
// its owner. A non-owner and an unknown user are refused before the cache
// is consulted: no hit, no miss, and not a byte written to their buffers.
func TestRespCacheAuthorisesBeforeServing(t *testing.T) {
	n := newCacheNode(t, 4*respImage)
	payload := bytes.Repeat([]byte("alice's record "), 200)
	if err := n.Put("alice", "f", payload); err != nil {
		t.Fatal(err)
	}
	getWant(t, n, "f", payload)
	getWant(t, n, "f", payload)
	wantRespStats(t, n, 1, 1)

	for _, user := range []string{"bob", "mallory"} {
		ct, tags := make([]byte, smallConfig().SlotBytes), make([]byte, 64*shield.TagSize)
		if _, err := n.GetSealed(user, "f", ct, tags); !errors.Is(err, ErrRejected) {
			t.Fatalf("%s: err = %v, want ErrRejected", user, err)
		}
		if !bytes.Equal(ct, make([]byte, len(ct))) || !bytes.Equal(tags, make([]byte, len(tags))) {
			t.Fatalf("%s's refused request received cached bytes", user)
		}
	}
	wantRespStats(t, n, 1, 1)
}

// TestRespCacheInvalidatedByPut: a Put that changes a file drops its
// cached response, so the next Get runs the full path and serves the new
// bytes, at the same size and at a new one.
func TestRespCacheInvalidatedByPut(t *testing.T) {
	n := newCacheNode(t, 4*respImage)
	v1 := bytes.Repeat([]byte{0x11}, 3000)
	if err := n.Put("alice", "f", v1); err != nil {
		t.Fatal(err)
	}
	getWant(t, n, "f", v1)
	getWant(t, n, "f", v1)
	wantRespStats(t, n, 1, 1)

	v2 := bytes.Repeat([]byte{0x22}, 3000)
	if err := n.Put("alice", "f", v2); err != nil {
		t.Fatal(err)
	}
	getWant(t, n, "f", v2)
	wantRespStats(t, n, 1, 2)
	getWant(t, n, "f", v2)
	wantRespStats(t, n, 2, 2)

	v3 := bytes.Repeat([]byte{0x33}, 1000)
	if err := n.Put("alice", "f", v3); err != nil {
		t.Fatal(err)
	}
	getWant(t, n, "f", v3)
	wantRespStats(t, n, 2, 3)
}

// TestRespCacheClearedOnProvision: provisioning user keys drops every
// cached response (their GDPR layer came from the old key database).
func TestRespCacheClearedOnProvision(t *testing.T) {
	n := newCacheNode(t, 4*respImage)
	payload := bytes.Repeat([]byte{0x44}, 3000)
	if err := n.Put("alice", "f", payload); err != nil {
		t.Fatal(err)
	}
	getWant(t, n, "f", payload)
	getWant(t, n, "f", payload)
	wantRespStats(t, n, 1, 1)

	n.ProvisionUserKeys(map[string][]byte{"carol": []byte("carol-key")})
	if n.respBytes != 0 || len(n.respCache) != 0 {
		t.Fatalf("cache holds %d entries (%d bytes) after provisioning", len(n.respCache), n.respBytes)
	}
	getWant(t, n, "f", payload)
	wantRespStats(t, n, 1, 2)
}

// TestRespCacheByteBudgetEviction: the cache holds what fits its byte
// budget, evicting the least recently served image, and never caches an
// image larger than the whole budget.
func TestRespCacheByteBudgetEviction(t *testing.T) {
	n := newCacheNode(t, 2*respImage)
	files := map[string][]byte{
		"a": bytes.Repeat([]byte{0xA0}, 3000),
		"b": bytes.Repeat([]byte{0xB0}, 3000),
		"c": bytes.Repeat([]byte{0xC0}, 3000),
		// Three auth blocks: larger than the whole budget.
		"big": bytes.Repeat([]byte{0xD0}, 3*4096),
	}
	for name, p := range files {
		if err := n.Put("alice", name, p); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name         string
		hits, misses uint64
	}{
		{"a", 0, 1},
		{"b", 0, 2},
		{"a", 1, 2}, // both fit; a is now the most recent
		{"c", 1, 3}, // evicts b, the least recently served
		{"a", 2, 3},
		{"c", 3, 3},
		{"b", 3, 4}, // evicted above; refilling it evicts a
		{"a", 3, 5},
		{"big", 3, 6},
		{"big", 3, 7}, // never cached
	}
	for i, s := range steps {
		getWant(t, n, s.name, files[s.name])
		if h, m, _ := n.RespCacheStats(); h != s.hits || m != s.misses {
			t.Fatalf("step %d (get %s): hits/misses = %d/%d, want %d/%d", i, s.name, h, m, s.hits, s.misses)
		}
		if n.respBytes > 2*respImage {
			t.Fatalf("step %d: cache holds %d bytes, over its %d-byte budget", i, n.respBytes, 2*respImage)
		}
	}
}

// TestRespCacheChurnAllocatesNothing: a miss on a full cache copies its
// image into the buffers of the entry it evicts, so Gets that cycle three
// files through a two-entry cache, every one a miss, allocate nothing.
func TestRespCacheChurnAllocatesNothing(t *testing.T) {
	n := newCacheNode(t, 2*respImage)
	names := []string{"a", "b", "c"}
	for _, name := range names {
		if err := n.Put("alice", name, bytes.Repeat([]byte(name), 3000)); err != nil {
			t.Fatal(err)
		}
	}
	sess := newNodeSession(t, n)
	ct, tags := sess.Buffers()
	i := 0
	get := func() {
		if _, err := n.GetSealed("alice", names[i%len(names)], ct, tags); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range names {
		get()
	}
	_, before, _ := n.RespCacheStats()
	allocs := testing.AllocsPerRun(30, get)
	if h, m, _ := n.RespCacheStats(); h != 0 || m == before {
		t.Fatalf("hits/misses = %d/%d, want every Get a miss", h, m)
	}
	if allocs != 0 {
		t.Fatalf("a Get that evicts a cached image allocates %.1f times, want 0", allocs)
	}
}
