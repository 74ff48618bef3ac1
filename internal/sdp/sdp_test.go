package sdp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/shield"
)

func smallConfig() NodeConfig {
	return NodeConfig{
		Slots: 4, SlotBytes: 64 << 10, AuthBlock: 4096,
		Engines: 4, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 16 << 10,
	}
}

func newNode(t *testing.T) *Node {
	t.Helper()
	dek := bytes.Repeat([]byte{0x21}, 32)
	n, err := NewNode(smallConfig(), dek, LineRateParams())
	if err != nil {
		t.Fatal(err)
	}
	n.ProvisionUserKeys(map[string][]byte{
		"alice": []byte("alice-key"),
		"bob":   []byte("bob-key"),
	})
	return n
}

func TestPutGetRoundTrip(t *testing.T) {
	n := newNode(t)
	payload := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := n.Put("alice", "health.rec", payload); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get("alice", "health.rec")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("file corrupted through the storage node")
	}
}

func TestMultipleFilesAndOverwrite(t *testing.T) {
	n := newNode(t)
	f1 := bytes.Repeat([]byte{1}, 5000)
	f2 := bytes.Repeat([]byte{2}, 7000)
	if err := n.Put("alice", "a", f1); err != nil {
		t.Fatal(err)
	}
	if err := n.Put("bob", "b", f2); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get("bob", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f2) {
		t.Fatal("bob's file corrupted")
	}
	// Overwrite reuses the slot.
	f1b := bytes.Repeat([]byte{3}, 4000)
	if err := n.Put("alice", "a", f1b); err != nil {
		t.Fatal(err)
	}
	got, _ = n.Get("alice", "a")
	if !bytes.Equal(got, f1b) {
		t.Fatal("overwrite lost data")
	}
}

// TestGDPRAccessPolicy: a user can neither read nor overwrite another
// user's file, and unprovisioned users get nothing, in every store
// layout.
func TestGDPRAccessPolicy(t *testing.T) {
	for _, layout := range []struct {
		name string
		cfg  NodeConfig
	}{
		{"flat", smallConfig()},
		{"oblivious", obliviousNodeConfig()},
		{"tenant zones", tenantZoneConfig()},
	} {
		t.Run(layout.name, func(t *testing.T) {
			n, err := NewNode(layout.cfg, bytes.Repeat([]byte{0x21}, 32), LineRateParams())
			if err != nil {
				t.Fatal(err)
			}
			n.ProvisionUserKeys(map[string][]byte{
				"alice": []byte("alice-key"),
				"bob":   []byte("bob-key"),
			})
			secret := []byte("alice's medical records")
			if err := n.Put("alice", "secret", secret); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Get("bob", "secret"); !errors.Is(err, ErrRejected) {
				t.Fatalf("bob read alice's file: %v", err)
			}
			if err := n.Put("bob", "secret", []byte("bob's bytes")); !errors.Is(err, ErrRejected) {
				t.Fatalf("bob overwrote alice's file: %v", err)
			}
			if got, err := n.Get("alice", "secret"); err != nil || !bytes.Equal(got, secret) {
				t.Fatalf("alice reads %q, %v after bob's Put; want her own bytes", got, err)
			}
			if _, err := n.Get("mallory", "secret"); !errors.Is(err, ErrRejected) {
				t.Fatalf("unprovisioned user served: %v", err)
			}
			if err := n.Put("mallory", "x", []byte("data")); !errors.Is(err, ErrRejected) {
				t.Fatalf("unprovisioned user stored a file: %v", err)
			}
		})
	}
}

func TestStorageIsEncryptedAtRest(t *testing.T) {
	n := newNode(t)
	secret := bytes.Repeat([]byte("GDPR-PROTECTED"), 300)
	n.Put("alice", "f", secret)
	dump, err := n.DRAM().RawRead(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(dump, []byte("GDPR-PROTECTED")) {
		t.Fatal("plaintext visible on the storage device")
	}
}

func TestStorageTamperDetected(t *testing.T) {
	n := newNode(t)
	payload := make([]byte, 20_000)
	rand.New(rand.NewSource(2)).Read(payload)
	n.Put("alice", "f", payload)
	// Adversary (cloud operator) flips a bit in the stored ciphertext.
	n.Shield().InvalidateClean()
	raw, _ := n.DRAM().RawRead(storeBase, 1)
	raw[0] ^= 1
	n.DRAM().RawWrite(storeBase, raw)
	if _, err := n.Get("alice", "f"); err == nil {
		t.Fatal("tampered storage served to the application")
	}
}

func TestNodeCapacity(t *testing.T) {
	n := newNode(t)
	for i := 0; i < 4; i++ {
		if err := n.Put("alice", string(rune('a'+i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Put("alice", "overflow", []byte("x")); err == nil {
		t.Fatal("node accepted file beyond capacity")
	}
	big := make([]byte, smallConfig().SlotBytes+1)
	if err := n.Put("alice", "a", big); err == nil {
		t.Fatal("oversized file accepted")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*NodeConfig)
	}{
		{"zero slots", func(c *NodeConfig) { c.Slots = 0 }},
		{"slot size not a multiple of the auth block", func(c *NodeConfig) { c.SlotBytes = 1000 }},
		{"zero auth block", func(c *NodeConfig) { c.AuthBlock = 0 }},
		{"negative auth block", func(c *NodeConfig) { c.AuthBlock = -4096 }},
	} {
		bad := smallConfig()
		tc.mutate(&bad)
		if _, err := NewNode(bad, make([]byte, 32), LineRateParams()); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: got %v, want ErrConfig", tc.name, err)
		}
	}
}

func TestUserLayerKeySeparation(t *testing.T) {
	n := newNode(t)
	data := []byte("same plaintext")
	buf1 := append([]byte(nil), data...)
	buf2 := append([]byte(nil), data...)
	var st stage
	seal := func(user string, buf []byte) {
		n.mu.Lock()
		uc := n.userCipher(user, "f")
		n.mu.Unlock()
		st.ctr.XORKeyStream(uc.block, uc.iv, buf, buf)
	}
	seal("alice", buf1)
	seal("bob", buf2)
	if bytes.Equal(buf1, buf2) {
		t.Fatal("different users share the file encryption layer")
	}
	seal("alice", buf1)
	if !bytes.Equal(buf1, data) {
		t.Fatal("user layer is not an involution")
	}
}

// TestTable2Shape asserts the paper's Table 2 shape: the two HMAC configs
// are equal and heavy; PMAC cuts the overhead sharply; more engines
// saturate toward a small floor. Bands are centred on the paper's
// 298/297/59/20/20% with model tolerance.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1MB sweep in -short mode")
	}
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	ov := make([]float64, 5)
	for i, r := range rows {
		ov[i] = r.Overhead
		t.Logf("%-24s %.0f%%", r.Label, r.Overhead*100)
	}
	within := func(i int, lo, hi float64) {
		if ov[i] < lo || ov[i] > hi {
			t.Errorf("config %d overhead %.0f%% outside [%.0f%%, %.0f%%]", i, ov[i]*100, lo*100, hi*100)
		}
	}
	within(0, 2.5, 3.5) // paper: 298%
	within(1, 2.5, 3.5) // paper: 297%
	within(2, 0.45, 0.90)
	within(3, 0.15, 0.45)
	within(4, 0.10, 0.35)
	if diff := ov[0] - ov[1]; diff < -0.05 || diff > 0.05 {
		t.Errorf("HMAC configs should be nearly identical (S-box moot): %.2f vs %.2f", ov[0], ov[1])
	}
	if !(ov[1] > ov[2] && ov[2] > ov[3] && ov[3] >= ov[4]) {
		t.Errorf("overheads not monotone down the sweep: %v", ov)
	}
}

// TestStorageRollbackDetected: a malicious operator restoring a previous
// version of a stored file (e.g. un-deleting a record after a GDPR
// erasure) is caught by the store region's freshness counters.
func TestStorageRollbackDetected(t *testing.T) {
	n := newNode(t)
	v1 := bytes.Repeat([]byte{0xA1}, 8192)
	if err := n.Put("alice", "f", v1); err != nil {
		t.Fatal(err)
	}
	// Snapshot the stored ciphertext and its tags.
	layout, err := n.Shield().Layout("store")
	if err != nil {
		t.Fatal(err)
	}
	snapData, _ := n.DRAM().RawRead(layout.DataBase, 3*4096)
	snapTags, _ := n.DRAM().RawRead(layout.TagBase, 3*shield.TagSize)

	// Overwrite (the "erasure").
	v2 := bytes.Repeat([]byte{0xB2}, 8192)
	if err := n.Put("alice", "f", v2); err != nil {
		t.Fatal(err)
	}
	n.Shield().InvalidateClean()

	// Roll back both data and tags.
	n.DRAM().RawWrite(layout.DataBase, snapData)
	n.DRAM().RawWrite(layout.TagBase, snapTags)
	if _, err := n.Get("alice", "f"); err == nil {
		t.Fatal("rolled-back file served to the application")
	}
}

// TestWriteBackNodeDefersToSync: on a WriteBack node a Put leaves the
// store lines dirty on-chip, so the store region's DRAM image (ciphertext
// and tags) and its write-back count stay as they were until Node.Sync,
// while Get already serves the new bytes. Sync writes the lines back, and
// the new bytes then survive dropping every clean line.
func TestWriteBackNodeDefersToSync(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteBack = true
	n, err := NewNode(cfg, bytes.Repeat([]byte{0x21}, 32), LineRateParams())
	if err != nil {
		t.Fatal(err)
	}
	n.ProvisionUserKeys(map[string][]byte{"alice": []byte("alice-key")})
	layout, err := n.Shield().Layout("store")
	if err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		data, err := n.DRAM().RawRead(layout.DataBase, int(layout.DataSize))
		if err != nil {
			t.Fatal(err)
		}
		tags, err := n.DRAM().RawRead(layout.TagBase, int(layout.TagSize))
		if err != nil {
			t.Fatal(err)
		}
		return append(data, tags...)
	}
	get := func(want []byte, when string) {
		t.Helper()
		got, err := n.Get("alice", "f")
		if err != nil {
			t.Fatalf("Get %s: %v", when, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get %s returned stale or corrupt bytes", when)
		}
	}

	v1 := bytes.Repeat([]byte{0xA1}, 8192) // two auth blocks
	if err := n.Put("alice", "f", v1); err != nil {
		t.Fatal(err)
	}
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	before, wb := image(), regionStats(t, n, "store").Writebacks
	if wb != 2 {
		t.Fatalf("first Sync wrote back %d store lines, want 2", wb)
	}

	v2 := bytes.Repeat([]byte{0xB2}, 8192)
	if err := n.Put("alice", "f", v2); err != nil {
		t.Fatal(err)
	}
	if got := regionStats(t, n, "store").Writebacks; got != wb {
		t.Fatalf("Put on a WriteBack node wrote back %d store lines before Sync", got-wb)
	}
	if !bytes.Equal(image(), before) {
		t.Fatal("Put on a WriteBack node changed the store region's DRAM before Sync")
	}
	get(v2, "before Sync")

	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := regionStats(t, n, "store").Writebacks; got != wb+2 {
		t.Fatalf("Sync wrote back %d store lines, want 2", got-wb)
	}
	if bytes.Equal(image(), before) {
		t.Fatal("Sync left the store region's DRAM unchanged")
	}
	n.Shield().InvalidateClean()
	get(v2, "after Sync")
}

// TestRejectedPutKeepsSlot: a rejected Put claims no slot, in the flat
// layout and with tenant zones. Four wrong-size PutSealed calls of new
// names on a 4-slot node leave room for a valid Put.
func TestRejectedPutKeepsSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		node func(*testing.T) *Node
	}{
		{"flat", newNode},
		{"tenant zones", newTenantNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.node(t)
			for i := 0; i < 4; i++ {
				name := string(rune('a' + i))
				err := n.PutSealed("alice", name, 5000, make([]byte, 4096), make([]byte, shield.TagSize))
				if !errors.Is(err, ErrRejected) {
					t.Fatalf("wrong-size image for %q: err = %v, want ErrRejected", name, err)
				}
			}
			payload := []byte("after the rejections")
			if err := n.Put("alice", "ok", payload); err != nil {
				t.Fatalf("valid Put after failed ones: %v", err)
			}
			if got, err := n.Get("alice", "ok"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Get = %q, %v", got, err)
			}
		})
	}
}

// TestTamperedPutSealedRecovers: a sealed image forged in flight is
// rejected without parking the node. The tls engine set that caught it
// is retired, so later Puts and Gets of earlier files still succeed, in
// the flat layout and with tenant zones.
func TestTamperedPutSealedRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		node func(*testing.T) *Node
	}{
		{"flat", newNode},
		{"tenant zones", newTenantNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.node(t)
			earlier := bytes.Repeat([]byte("stored before the forgery "), 400)
			if err := n.Put("alice", "earlier", earlier); err != nil {
				t.Fatal(err)
			}
			sess, err := newTLSSession(n.cfg, n.dek)
			if err != nil {
				t.Fatal(err)
			}
			forged := []byte("forged in flight")
			for _, target := range []string{"ciphertext", "tag"} {
				ct, tags, err := sess.Seal(forged)
				if err != nil {
					t.Fatal(err)
				}
				if target == "ciphertext" {
					ct[7] ^= 0x01
				} else {
					tags[0] ^= 0x01
				}
				var ie *shield.IntegrityError
				if err := n.PutSealed("alice", "forged", len(forged), ct, tags); !errors.As(err, &ie) {
					t.Fatalf("Put with a tampered %s: err = %v, want an IntegrityError", target, err)
				}
			}
			if _, err := n.Get("alice", "forged"); err == nil {
				t.Fatal("a rejected Put stored its file")
			}
			valid := []byte("well-formed after the forgeries")
			ct, tags, err := sess.Seal(valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.PutSealed("alice", "valid", len(valid), ct, tags); err != nil {
				t.Fatalf("valid Put after the forgeries: %v", err)
			}
			for name, want := range map[string][]byte{"earlier": earlier, "valid": valid} {
				if got, err := n.Get("alice", name); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get %q after the forgeries: %v, equal = %t", name, err, bytes.Equal(got, want))
				}
			}
		})
	}
}

// regionStats returns the named region's row of the node's Shield report.
func regionStats(t *testing.T, n *Node, name string) shield.RegionStats {
	t.Helper()
	for _, rs := range n.Report().Regions {
		if rs.Name == name {
			return rs
		}
	}
	t.Fatalf("Node.Report has no %s row: %+v", name, n.Report().Regions)
	return shield.RegionStats{}
}

// tlsBusy returns the node's tls region BusyCycles from Node.Report.
func tlsBusy(t *testing.T, n *Node) uint64 {
	t.Helper()
	return regionStats(t, n, "tls").BusyCycles
}

// TestForgedPutKeepsTLSStats: retiring the tls engine set after a forged
// Put keeps its accounting, so the tls row stays in Node.Report with at
// least the busy time it had, and a later valid Put adds to it.
func TestForgedPutKeepsTLSStats(t *testing.T) {
	n := newNode(t)
	sess, err := newTLSSession(n.cfg, n.dek)
	if err != nil {
		t.Fatal(err)
	}
	put := func(name string, forge bool) error {
		payload := bytes.Repeat([]byte(name), 500)
		ct, tags, err := sess.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if forge {
			ct[7] ^= 0x01
		}
		return n.PutSealed("alice", name, len(payload), ct, tags)
	}
	if err := put("first", false); err != nil {
		t.Fatal(err)
	}
	before := tlsBusy(t, n)
	var ie *shield.IntegrityError
	if err := put("forged", true); !errors.As(err, &ie) {
		t.Fatalf("forged Put: err = %v, want an IntegrityError", err)
	}
	afterForgery := tlsBusy(t, n)
	if afterForgery < before {
		t.Fatalf("tls busy %d cycles after the forged Put, %d before", afterForgery, before)
	}
	if err := put("second", false); err != nil {
		t.Fatal(err)
	}
	if after := tlsBusy(t, n); after <= afterForgery {
		t.Fatalf("tls busy %d cycles after a valid Put, %d before it", after, afterForgery)
	}
}
