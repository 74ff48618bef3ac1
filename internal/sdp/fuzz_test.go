package sdp

import (
	"bytes"
	"testing"

	"shef/internal/crypto/aesx"
	"shef/internal/shield"
)

// fuzzNodeConfig is a two-slot node with small auth blocks, so a sealed
// image is a few hundred bytes and each fuzz input runs in microseconds.
func fuzzNodeConfig() NodeConfig {
	return NodeConfig{
		Slots: 2, SlotBytes: 1024, AuthBlock: 256,
		Engines: 1, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 512,
	}
}

// FuzzNodePutSealed feeds a node's PutSealed the (size, ct, tags) a
// client controls. Each input is either rejected, leaving the stored file
// as it was, or stored so that Get returns what the Data Owner's own
// session opens from the same image. Either way a well-formed Put and
// Get succeed afterwards: a forged image must not park the node.
func FuzzNodePutSealed(f *testing.F) {
	cfg := fuzzNodeConfig()
	dek := bytes.Repeat([]byte{0x21}, 32)
	sess, err := newTLSSession(cfg, dek)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range [][]byte{[]byte("a"), bytes.Repeat([]byte("fuzz"), 100)} {
		ct, tags, err := sess.Seal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(len(p), append([]byte(nil), ct...), append([]byte(nil), tags...))
	}
	n, err := NewNode(cfg, dek, LineRateParams())
	if err != nil {
		f.Fatal(err)
	}
	n.ProvisionUserKeys(map[string][]byte{"alice": []byte("alice-key")})
	probe := []byte("well-formed probe")
	var stored []byte // what "fuzz" holds; nil while absent
	f.Fuzz(func(t *testing.T, size int, ct, tags []byte) {
		var want []byte
		if opened, err := sess.Open(nil, ct, tags, size); err == nil {
			want = opened
		}
		err := n.PutSealed("alice", "fuzz", size, ct, tags)
		switch {
		case err == nil && want == nil:
			t.Fatalf("node stored an image its Data Owner cannot open (size %d, %d+%d bytes)", size, len(ct), len(tags))
		case err == nil:
			stored = want
		}
		got, gerr := n.Get("alice", "fuzz")
		switch {
		case stored == nil && gerr == nil:
			t.Fatalf("rejected first Put (%v) left a file behind", err)
		case stored != nil && (gerr != nil || !bytes.Equal(got, stored)):
			t.Fatalf("after Put err = %v: Get = %q, %v; want %q", err, got, gerr, stored)
		}
		if perr := n.Put("alice", "probe", probe); perr != nil {
			t.Fatalf("well-formed Put after a fuzzed one (err = %v): %v", err, perr)
		}
		if got, err := n.Get("alice", "probe"); err != nil || !bytes.Equal(got, probe) {
			t.Fatalf("well-formed Get = %q, %v", got, err)
		}
	})
}
