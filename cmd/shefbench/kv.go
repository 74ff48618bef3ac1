package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shef/internal/crypto/aesx"
	"shef/internal/sdp"
	"shef/internal/shield"
)

// kvGeom sizes the kv workload: files Zipf-distributed over a 4-shard
// single-copy cluster whose store buffers and response caches hold far
// less than the working set.
type kvGeom struct {
	files, payload, slots, smokeOps int
}

func kvGeometry(smoke bool) kvGeom {
	if smoke {
		return kvGeom{files: 32, payload: 8 << 10, slots: 32, smokeOps: 256}
	}
	return kvGeom{files: 512, payload: 8 << 10, slots: 512}
}

const (
	kvShards  = 4
	kvClients = 2
	kvUser    = "owner"
	kvBodies  = 64
	// kvZipf is the key-popularity skew.
	kvZipf = 1.1
	// kvHeader is key, writer, seq and a CRC-32C over the rest.
	kvHeader = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// kvFile is one file's single-writer register: file k is written only by
// client k%kvClients, so the last acknowledged Put is well defined.
// invoked is the seq of the newest Put begun, acked of the newest Put
// acknowledged; a Get must return a seq between acked at its start and
// invoked at its end.
type kvFile struct {
	name    string
	invoked atomic.Uint64
	acked   atomic.Uint64
}

type kvRig struct {
	g       kvGeom
	c       *sdp.Cluster
	clients []*sdp.Client
	files   []*kvFile
	bodies  [][]byte
}

func newKVRig(seed int64, g kvGeom) (*kvRig, error) {
	c, err := sdp.NewCluster(sdp.ClusterConfig{Shards: kvShards, Node: sdp.NodeConfig{
		Slots: g.slots, SlotBytes: g.payload, AuthBlock: 4096,
		Engines: 4, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 16 << 10, WriteBack: true, ResponseCacheBytes: 24 << 10,
	}})
	if err != nil {
		return nil, err
	}
	if err := c.RegisterUser(kvUser, []byte("shefbench-kv-user-key")); err != nil {
		return nil, err
	}
	r := &kvRig{g: g, c: c}
	for i := 0; i < kvClients; i++ {
		cl, err := c.NewClient()
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < kvBodies; i++ {
		b := make([]byte, g.payload)
		rng.Read(b)
		r.bodies = append(r.bodies, b)
	}
	buf := make([]byte, g.payload)
	for k := 0; k < g.files; k++ {
		f := &kvFile{name: fmt.Sprintf("f%03d", k)}
		r.files = append(r.files, f)
		r.fill(buf, k, rng.Intn(kvBodies), f.invoked.Add(1))
		if err := r.clients[k%kvClients].Put(kvUser, f.name, buf); err != nil {
			return nil, err
		}
		f.acked.Store(1)
	}
	return r, nil
}

// close retires every node's engine sets, which would otherwise keep
// their fan-out workers and DRAM alive.
func (r *kvRig) close() error {
	var errs []error
	for i := 0; i < kvShards; i++ {
		for _, region := range []string{"store", "tls"} {
			errs = append(errs, r.c.Node(i).Shield().DestroyRegion("", region))
		}
	}
	return errors.Join(errs...)
}

// fill writes a self-verifying payload for file k at seq into buf.
func (r *kvRig) fill(buf []byte, k, body int, seq uint64) {
	copy(buf[kvHeader:], r.bodies[body][kvHeader:])
	binary.LittleEndian.PutUint32(buf[0:], uint32(k))
	binary.LittleEndian.PutUint32(buf[4:], uint32(k%kvClients))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[16:], crc32.Update(crc32.Checksum(buf[:16], castagnoli), castagnoli, buf[kvHeader:]))
}

// check validates a Get of file k against its register bounds.
func (r *kvRig) check(got []byte, k int, lo, hi uint64) error {
	if len(got) != r.g.payload {
		return fmt.Errorf("%d bytes, want %d", len(got), r.g.payload)
	}
	if crc := crc32.Update(crc32.Checksum(got[:16], castagnoli), castagnoli, got[kvHeader:]); crc != binary.LittleEndian.Uint32(got[16:]) {
		return errors.New("checksum mismatch")
	}
	key, writer, seq := binary.LittleEndian.Uint32(got), binary.LittleEndian.Uint32(got[4:]), binary.LittleEndian.Uint64(got[8:])
	if int(key) != k || int(writer) != k%kvClients {
		return fmt.Errorf("payload of file %d by client %d", key, writer)
	}
	if seq < lo || seq > hi {
		return fmt.Errorf("seq %d outside [%d, %d]", seq, lo, hi)
	}
	return nil
}

// kvPhase is what one client saw in one phase.
type kvPhase struct {
	res             *run
	all, gets, puts series
	done            []time.Duration
}

// client runs one closed-loop client: Get:Put 3:1 over Zipf-popular
// files, Puts only to the files this client owns. With t set, each op
// makes the same public calls Client.Get/Put make, one span each.
func (r *kvRig) client(w int, seed int64, start time.Time, b budget, t *tracer) kvPhase {
	p := kvPhase{res: newRun()}
	cl := r.clients[w]
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, kvZipf, 1, uint64(len(r.files)-1))
	buf := make([]byte, r.g.payload)
	dst := make([]byte, 0, r.g.payload)
	for ops := 0; b.more(ops); ops++ {
		k := int(zipf.Uint64())
		put := rng.Intn(4) == 0
		if put {
			k = k - k%kvClients + w
		}
		f := r.files[k]
		p.res.attempted++
		var err error
		var got []byte
		var seq, lo uint64
		if put {
			seq = f.invoked.Add(1)
			r.fill(buf, k, rng.Intn(kvBodies), seq)
		} else {
			lo = f.acked.Load()
		}
		t.begin(opSpan)
		opStart := time.Now()
		switch {
		case put && t == nil:
			err = cl.Put(kvUser, f.name, buf)
		case put:
			err = r.putTraced(t, cl, f.name, buf)
		case t == nil:
			got, err = cl.Get(kvUser, f.name, dst)
		default:
			got, err = r.getTraced(t, cl, f.name, dst)
		}
		d := time.Since(opStart)
		t.end()
		if err != nil {
			p.res.fail(fmt.Errorf("kv %s: %w", f.name, err))
			continue
		}
		p.all.add(d)
		p.done = append(p.done, time.Since(start))
		if put {
			p.puts.add(d)
			f.acked.Store(seq)
			continue
		}
		p.gets.add(d)
		if err := r.check(got, k, lo, f.invoked.Load()); err != nil {
			p.res.violate("kv: Get %s: %v", f.name, err)
		}
	}
	return p
}

// getTraced is Client.Get decomposed into the public calls it makes.
func (r *kvRig) getTraced(t *tracer, cl *sdp.Client, name string, dst []byte) ([]byte, error) {
	t.begin("sdp.route")
	n, sess := r.c.Node(r.c.ShardFor(name)), cl.Session(name)
	t.end()
	if n == nil {
		return nil, sdp.ErrShardDown
	}
	ct, tags := sess.Buffers()
	t.begin("sdp.node_get")
	size, err := n.GetSealed(kvUser, name, ct, tags)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("sdp.client_open")
	out, err := sess.Open(dst, ct, tags, size)
	t.end()
	return out, err
}

// putTraced is Client.Put decomposed into the public calls it makes.
func (r *kvRig) putTraced(t *tracer, cl *sdp.Client, name string, payload []byte) error {
	t.begin("sdp.route")
	n, sess := r.c.Node(r.c.ShardFor(name)), cl.Session(name)
	t.end()
	if n == nil {
		return sdp.ErrShardDown
	}
	t.begin("sdp.client_seal")
	ct, tags, err := sess.Seal(payload)
	t.end()
	if err != nil {
		return err
	}
	t.begin("sdp.node_put")
	err = n.PutSealed(kvUser, name, len(payload), ct, tags)
	t.end()
	return err
}

// phase runs n clients concurrently (client i seeded from seed+i) and
// merges what they saw into res.
func (r *kvRig) phase(seed int64, n int, b budget, tracers []*tracer, res *run) kvPhase {
	out := make([]kvPhase, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		var t *tracer
		if tracers != nil {
			t = tracers[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = r.client(w, seed+int64(w), start, b.split(n), t)
		}()
	}
	wg.Wait()
	var m kvPhase
	for _, p := range out {
		res.merge(p.res)
		m.all = append(m.all, p.all...)
		m.gets = append(m.gets, p.gets...)
		m.puts = append(m.puts, p.puts...)
		m.done = append(m.done, p.done...)
	}
	return m
}

// verify is the quiesced final pass: every file must return its last
// acknowledged Put.
func (r *kvRig) verify(res *run) {
	dst := make([]byte, 0, r.g.payload)
	for k, f := range r.files {
		res.attempted++
		got, err := r.clients[0].Get(kvUser, f.name, dst)
		if err != nil {
			res.fail(fmt.Errorf("kv final read of %s: %w", f.name, err))
			continue
		}
		acked := f.acked.Load()
		if err := r.check(got, k, acked, acked); err != nil {
			res.violate("kv: final read of %s: %v", f.name, err)
		}
	}
}

func runKV(rc runConfig) (*run, error) {
	g := kvGeometry(rc.smoke)
	r, setup, err := timeSetup(rc, func() (*kvRig, error) { return newKVRig(rc.seed, g) }, (*kvRig).close)
	if err != nil {
		return nil, err
	}
	res := newRun()
	res.set("setup_s", "s", setup)
	share := 1.0
	if rc.trace {
		share = 0.5
	}
	r.c.ResetStats()
	for i := 0; i < kvShards; i++ {
		r.c.Node(i).DRAM().ResetStats()
	}
	p := r.phase(rc.seed*7919+1, kvClients, rc.budget(share, g.smokeOps), nil, res)
	res.rate(p.done)
	res.latencyMetrics("", p.all)
	res.latencyMetrics("read_", p.gets)
	res.latencyMetrics("write_", p.puts)
	r.layerCounters(res, len(p.all))

	if rc.trace {
		solo := []*tracer{newTracer(time.Now(), 0)}
		r.phase(rc.seed*7919+3, 1, rc.budget(share/5, g.smokeOps/4), solo, res)
		tracers := []*tracer{newTracer(time.Now(), 1), newTracer(time.Now(), 2)}
		r.phase(rc.seed*7919+5, kvClients, rc.budget(share*4/5, g.smokeOps), tracers, res)
		ts := mergeTracers(tracers...)
		nodeMean := func(s *traceSet) float64 {
			get, put := s.layer("sdp.node_get").durs, s.layer("sdp.node_put").durs
			return ratio(get.sum()+put.sum(), float64(len(get)+len(put)))
		}
		res.set("sdp.node.wait_share", "ratio", 1-ratio(nodeMean(mergeTracers(solo...)), nodeMean(ts)))
		for _, l := range []string{"sdp.node_get", "sdp.node_put"} {
			res.set(l+".p50_us", "us", ts.layer(l).durs.quantile(0.5)*1e3)
			res.set(l+".p99_us", "us", ts.layer(l).durs.quantile(0.99)*1e3)
		}
		res.set("sdp.client_open.p50_us", "us", ts.layer("sdp.client_open").durs.quantile(0.5)*1e3)
		res.set("sdp.client_seal.p50_us", "us", ts.layer("sdp.client_seal").durs.quantile(0.5)*1e3)
		res.set("trace_overhead_pct", "%", 100*(ratio(ts.layer(opSpan).durs.mean(), p.all.mean())-1))
		if err := finishTrace(rc, res, ts); err != nil {
			return nil, err
		}
	}
	r.verify(res)
	return res, nil
}

// layerCounters reports the cluster's own counters over the phase just
// measured.
func (r *kvRig) layerCounters(res *run, ops int) {
	st := r.c.Stats()
	res.set("sdp.errors", "count", float64(st.Errors))
	res.set("sdp.retries", "count", float64(st.Retries))
	var hits, misses, bufHits, bufMisses, evictions, dramBytes uint64
	for i := 0; i < kvShards; i++ {
		n := r.c.Node(i)
		h, m, _ := n.RespCacheStats()
		hits, misses = hits+h, misses+m
		for _, rs := range n.Report().Regions {
			if rs.Name == "store" {
				bufHits, bufMisses, evictions = bufHits+rs.Hits, bufMisses+rs.Misses, evictions+rs.Evictions
			}
		}
		_, _, rb, wb := n.DRAM().Stats()
		dramBytes += rb + wb
	}
	res.set("sdp.respcache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	res.set("shield.buffer.hit_ratio", "ratio", ratio(float64(bufHits), float64(bufHits+bufMisses)))
	res.set("shield.evictions_per_op", "count", ratio(float64(evictions), float64(ops)))
	res.set("mem.bytes_per_user_byte", "ratio", ratio(float64(dramBytes), float64(ops*r.g.payload)))
}
