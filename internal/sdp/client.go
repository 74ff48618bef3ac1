package sdp

import (
	"context"
	"fmt"

	"shef/internal/faultinject"
	"shef/internal/shield"
)

// TLSSession is a Data Owner endpoint onto one Storage Node's tls
// region: a persistent region sealer plus staging buffers, built once
// per session instead of per message. It moves the client half of the
// TLS path — sealing requests, opening responses — onto the client's
// own goroutine, so the node's serialised section carries only node
// work (the paper's trust split: the Data Owner's endpoint is not part
// of the Storage Node).
//
// A TLSSession is not safe for concurrent use; hold one per goroutine.
type TLSSession struct {
	rs    *shield.RegionSealer
	chunk int
	ct    []byte
	tags  []byte
	plain []byte
}

// newTLSSession opens a Data Owner endpoint onto a node's tls region. It
// needs only what the Data Owner holds without reaching the node: the
// session DEK from attestation, and the node geometry, which fixes the
// tls region's configuration and its region ID (tls is the last static
// region). So a session opens while its node is crashed, and survives the
// node's restart under the same DEK.
func newTLSSession(cfg NodeConfig, dek []byte) (*TLSSession, error) {
	regions := cfg.ShieldConfig().Regions
	tls := regions[len(regions)-1]
	rs, err := shield.NewRegionSealer(tls, uint32(len(regions)), dek)
	if err != nil {
		return nil, err
	}
	size := int(tls.Size)
	return &TLSSession{
		rs:    rs,
		chunk: cfg.AuthBlock,
		ct:    make([]byte, size),
		tags:  make([]byte, size/cfg.AuthBlock*shield.TagSize),
		plain: make([]byte, size),
	}, nil
}

// Seal encrypts payload into the session's staging buffers in the tls
// region's chunk format and returns the ciphertext and tag extents,
// valid until the next Seal. Feed them to Node.PutSealed.
func (t *TLSSession) Seal(payload []byte) (ct, tags []byte, err error) {
	aligned := alignUp(len(payload), t.chunk)
	if aligned > len(t.plain) || len(payload) == 0 {
		return nil, nil, rejectf("sdp: payload of %d bytes outside the tls region's 1..%d", len(payload), len(t.plain))
	}
	copy(t.plain, payload)
	clear(t.plain[len(payload):aligned])
	k := aligned / t.chunk
	if err := t.rs.SealRange(0, 0, t.ct[:aligned], t.tags[:k*shield.TagSize], t.plain[:aligned]); err != nil {
		return nil, nil, err
	}
	return t.ct[:aligned], t.tags[:k*shield.TagSize], nil
}

// Open verifies and decrypts a sealed response extent (from
// Node.GetSealed) and appends the size payload bytes to dst.
func (t *TLSSession) Open(dst, ct, tags []byte, size int) ([]byte, error) {
	aligned := alignUp(size, t.chunk)
	if aligned > len(t.plain) || size < 0 {
		return nil, fmt.Errorf("sdp: sealed response of %d bytes outside the tls region: %w", size, ErrBadResponse)
	}
	k := aligned / t.chunk
	if len(ct) < aligned || len(tags) < k*shield.TagSize {
		return nil, fmt.Errorf("sdp: sealed response extent truncated: %w", ErrBadResponse)
	}
	if err := t.rs.OpenRange(0, 0, t.plain[:aligned], ct[:aligned], tags[:k*shield.TagSize]); err != nil {
		return nil, err
	}
	return append(dst[:0], t.plain[:size]...), nil
}

// Buffers exposes the session's reusable ciphertext/tag staging buffers,
// sized to the full tls region — the transfer buffers a caller hands to
// Node.GetSealed before opening the result with the same session.
func (t *TLSSession) Buffers() (ct, tags []byte) { return t.ct, t.tags }

// Client is a Data Owner endpoint onto the whole fleet: one TLSSession
// per shard, with Put/Get routed to each file's replica set and the
// client-side cryptography on the caller's goroutine. It is the cluster's
// only request path. Not safe for concurrent use; create one Client per
// worker.
type Client struct {
	c        *Cluster
	sessions []*TLSSession
}

// NewClient opens a Data Owner endpoint with a TLS session to every
// shard. Sessions are keyed by each shard's stable session DEK, so they
// open while a shard is crashed and survive its restart.
func (c *Cluster) NewClient() (*Client, error) {
	cl := &Client{c: c, sessions: make([]*TLSSession, len(c.slots))}
	for i, slot := range c.slots {
		t, err := newTLSSession(c.cfg.Node, slot.dek)
		if err != nil {
			return nil, fmt.Errorf("sdp: shard %d session: %w", i, err)
		}
		cl.sessions[i] = t
	}
	return cl, nil
}

// Put seals the payload on the client's goroutine and stores it on the
// file's replica set (the home shard alone in single-copy mode). Each
// replica gets its own seal — sessions are per-shard — so a corrupted
// copy on one replica can never authenticate on another.
func (cl *Client) Put(user, name string, payload []byte) error {
	return cl.PutCtx(context.Background(), user, name, payload)
}

// PutCtx is Put with caller-controlled cancellation.
func (cl *Client) PutCtx(ctx context.Context, user, name string, payload []byte) error {
	return cl.c.writeReplicas(ctx, user, name, func(shard int, n *Node, fi faultinject.Result) error {
		return cl.sealPut(shard, n, fi, user, name, payload)
	})
}

// sealPut is one replica attempt of a sealed write: seal on that
// replica's session, then store. An injected corruption fault mangles the
// sealed image in transit — the node's tls engine set refuses it, the
// attempt fails authenticated-closed, and the retry re-seals cleanly.
func (cl *Client) sealPut(shard int, n *Node, fi faultinject.Result, user, name string, payload []byte) error {
	ct, tags, err := cl.sessions[shard].Seal(payload)
	if err != nil {
		return reject(err)
	}
	if fi.Corrupt {
		faultinject.CorruptBytes(ct, fi.CorruptSeed)
	}
	return n.PutSealed(user, name, len(payload), ct, tags)
}

// PutSealed stores a pre-sealed image (from Seal on the file's home
// shard session) — the loadgen path, where one sealed request image is
// replayed many times without resealing. The home shard stores the image
// as given, so a single-copy write does no client-side crypto. Followers
// get their own seals: the image is opened once on the home session and
// re-sealed per follower session. The caller's buffers are only ever
// read — they may alias the home session's staging buffers — so an
// injected corruption fault on the home shard mangles a private copy.
// An image whose extent disagrees with size is rejected before any
// replica sees it, so no follower can store a prefix the home shard
// refuses.
func (cl *Client) PutSealed(user, name string, size int, ct, tags []byte) error {
	if err := checkSealedShape(size, cl.c.cfg.Node.AuthBlock, ct, tags); err != nil {
		return err
	}
	home := cl.c.ShardFor(name)
	var plain []byte
	return cl.c.writeReplicas(context.Background(), user, name, func(shard int, n *Node, fi faultinject.Result) error {
		if shard == home {
			img := ct
			if fi.Corrupt {
				img = append([]byte(nil), ct...)
				faultinject.CorruptBytes(img, fi.CorruptSeed)
			}
			return n.PutSealed(user, name, size, img, tags)
		}
		if plain == nil {
			p, err := cl.sessions[home].Open(nil, ct, tags, size)
			if err != nil {
				// The caller's image is at fault, not this replica.
				return reject(err)
			}
			plain = p
		}
		return cl.sealPut(shard, n, fi, user, name, plain)
	})
}

// Session returns the client's TLS session for the shard that owns name.
func (cl *Client) Session(name string) *TLSSession {
	return cl.sessions[cl.c.ShardFor(name)]
}

// Get fetches a file, opening the sealed response on the client's
// goroutine, and appends the payload to dst. The read falls back replica
// by replica: a replica whose sealed response fails authentication
// (corrupted storage or transit) is treated as a failed replica and the
// next one serves.
func (cl *Client) Get(user, name string, dst []byte) ([]byte, error) {
	return cl.GetCtx(context.Background(), user, name, dst)
}

// GetCtx is Get with caller-controlled cancellation.
func (cl *Client) GetCtx(ctx context.Context, user, name string, dst []byte) ([]byte, error) {
	var out []byte
	err := cl.c.readReplicas(ctx, name, func(shard int, n *Node, fi faultinject.Result) error {
		size, err := cl.fetch(shard, n, fi, user, name)
		if err == nil {
			t := cl.sessions[shard]
			out, err = t.Open(dst, t.ct, t.tags, size)
		}
		return err
	})
	return out, err
}

// GetSealed fetches a file's sealed response into the serving shard's
// session staging buffers without opening it — the loadgen path,
// measuring server-side serving with the client-side open sampled
// separately. Returns the payload size and the session holding the
// sealed bytes: whichever replica served the read (the home shard's in
// single-copy mode).
func (cl *Client) GetSealed(user, name string) (int, *TLSSession, error) {
	var size int
	var t *TLSSession
	err := cl.c.readReplicas(context.Background(), name, func(shard int, n *Node, fi faultinject.Result) error {
		sz, err := cl.fetch(shard, n, fi, user, name)
		if err == nil {
			size, t = sz, cl.sessions[shard]
		}
		return err
	})
	return size, t, err
}

// fetch is one replica attempt of a sealed read: the node DMAs the sealed
// response into that replica's session buffers, where an injected
// corruption fault mangles it in transit.
func (cl *Client) fetch(shard int, n *Node, fi faultinject.Result, user, name string) (int, error) {
	t := cl.sessions[shard]
	size, err := n.GetSealed(user, name, t.ct, t.tags)
	if err == nil && fi.Corrupt {
		faultinject.CorruptBytes(t.ct[:alignUp(size, t.chunk)], fi.CorruptSeed)
	}
	return size, err
}
