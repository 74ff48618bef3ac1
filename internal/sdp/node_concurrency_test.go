package sdp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// newNodeSession opens a Data Owner session onto n's tls region, one per
// goroutine.
func newNodeSession(t *testing.T, n *Node) *TLSSession {
	t.Helper()
	sess, err := newTLSSession(n.cfg, n.dek)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestConcurrentPutSealedOneName: concurrent PutSealed calls of one name
// with different sizes, while readers Get it. Every read, and the read
// after each round, returns the size and the bytes of a single Put: the
// payload's fill byte names the writer and the round, and each writer's
// size is its own, so a size from one Put with bytes from another shows.
func TestConcurrentPutSealedOneName(t *testing.T) {
	const writers, readers, rounds = 4, 2, 40
	n := newNode(t)
	// Sizes straddle auth-block boundaries: 1, 2, 3 and 4 chunks.
	size := func(w int) int { return 1000 + w*4500 }
	fill := func(round, w int) byte { return byte(round*writers + w + 1) }
	check := func(got []byte) error {
		if len(got) == 0 {
			return fmt.Errorf("empty file")
		}
		b := int(got[0]) - 1
		if w := b % writers; len(got) != size(w) {
			return fmt.Errorf("%d bytes filled by writer %d, whose Put is %d bytes", len(got), w, size(w))
		}
		for i, c := range got {
			if c != got[0] {
				return fmt.Errorf("byte %d is %#x, byte 0 is %#x: two Puts' bytes", i, c, got[0])
			}
		}
		return nil
	}
	if err := n.Put("alice", "f", bytes.Repeat([]byte{fill(0, 0)}, size(0))); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var rwg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		sess := newNodeSession(t, n)
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			ct, tags := sess.Buffers()
			for !stop.Load() {
				sz, err := n.GetSealed("alice", "f", ct, tags)
				if err == nil {
					var got []byte
					if got, err = sess.Open(nil, ct, tags, sz); err == nil {
						err = check(got)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("concurrent Get: %w", err)
					return
				}
			}
		}()
	}
	sessions := make([]*TLSSession, writers)
	for w := range sessions {
		sessions[w] = newNodeSession(t, n)
	}
	for round := 1; round <= rounds && len(errs) == 0; round++ {
		var wwg sync.WaitGroup
		for w, sess := range sessions {
			ct, tags, err := sess.Seal(bytes.Repeat([]byte{fill(round, w)}, size(w)))
			if err != nil {
				t.Fatal(err)
			}
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				if err := n.PutSealed("alice", "f", size(w), ct, tags); err != nil {
					errs <- fmt.Errorf("Put by writer %d: %w", w, err)
				}
			}()
		}
		wwg.Wait()
		got, err := n.Get("alice", "f")
		if err == nil {
			err = check(got)
		}
		if err == nil && (int(got[0])-1)/writers != round {
			err = fmt.Errorf("read after round %d holds round %d's bytes", round, (int(got[0])-1)/writers)
		}
		if err != nil {
			t.Fatalf("Get after round %d: %v", round, err)
		}
	}
	stop.Store(true)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentPutGetNoStaleRead: one writer overwrites a file with
// rising versions while readers Get it from a node whose response cache
// holds it. A Get that starts after a Put's acknowledgement never returns
// an older version, whether the cache or the store serves it, and never
// one newer than the newest Put begun.
func TestConcurrentPutGetNoStaleRead(t *testing.T) {
	const readers, versions = 3, 400
	n := newCacheNode(t, 4*respImage)
	payload := func(v uint64) []byte {
		p := bytes.Repeat([]byte("versioned record "), 100)
		binary.LittleEndian.PutUint64(p, v)
		return p
	}
	if err := n.Put("alice", "f", payload(1)); err != nil {
		t.Fatal(err)
	}
	var invoked, acked atomic.Uint64
	invoked.Store(1)
	acked.Store(1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		sess := newNodeSession(t, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct, tags := sess.Buffers()
			for !stop.Load() {
				lo := acked.Load()
				sz, err := n.GetSealed("alice", "f", ct, tags)
				hi := invoked.Load()
				var got []byte
				if err == nil {
					got, err = sess.Open(nil, ct, tags, sz)
				}
				if err != nil {
					errs <- fmt.Errorf("Get: %w", err)
					return
				}
				if v := binary.LittleEndian.Uint64(got); v < lo || v > hi {
					errs <- fmt.Errorf("Get returned version %d, want one in [%d, %d]", v, lo, hi)
					return
				}
			}
		}()
	}
	sess := newNodeSession(t, n)
	for v := uint64(2); v <= versions && len(errs) == 0; v++ {
		p := payload(v)
		ct, tags, err := sess.Seal(p)
		if err != nil {
			t.Fatal(err)
		}
		invoked.Store(v)
		if err := n.PutSealed("alice", "f", len(p), ct, tags); err != nil {
			t.Fatal(err)
		}
		acked.Store(v)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if h, _, _ := n.RespCacheStats(); h == 0 {
		t.Fatal("no Get was served from the response cache")
	}
}
