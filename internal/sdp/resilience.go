package sdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"shef/internal/faultinject"
	"shef/internal/profiling"
)

// Fault-injection site names for the cluster's Storage Node boundary —
// the targets faultinject rules aim at.
const (
	FaultSitePut = "sdp.put"
	FaultSiteGet = "sdp.get"
)

// replicaSet lists the shards holding a file: the home shard plus its
// Replicas-1 successors on the ring, in placement order.
func (c *Cluster) replicaSet(name string) []int {
	return c.appendReplicaSet(make([]int, 0, c.cfg.Replicas), name)
}

// inlineReplicas sizes the stack buffers the per-operation paths hand to
// appendReplicaSet and readOrder, so routing a request allocates nothing
// at any common replication factor (larger sets spill to the heap).
const inlineReplicas = 8

// appendReplicaSet appends replicaSet(name) to dst.
func (c *Cluster) appendReplicaSet(dst []int, name string) []int {
	home := c.ShardFor(name)
	for k := 0; k < c.cfg.Replicas; k++ {
		dst = append(dst, (home+k)%len(c.slots))
	}
	return dst
}

// fileLock returns the stripe mutex serializing writes and
// repair for one file.
func (c *Cluster) fileLock(name string) *sync.Mutex {
	return &c.fileLocks[fnv1a(name)%uint32(len(c.fileLocks))]
}

// fileMeta is one registry entry: the file's owner and the witness set —
// the shards that acknowledged its most recent successful write, in
// placement order. A witness is guaranteed to hold (at least) the last
// acknowledged version.
type fileMeta struct {
	user  string
	acked []int
}

// readOrder is the replica order a read walks: witnesses of the last
// acknowledged write first, then the rest of the placement order. Without
// this, a primary that missed an acknowledged write (transient fault,
// crash window) would serve its stale copy to a reader while perfectly
// fresh replicas sat idle behind it. The order is appended to dst.
// Single-copy clusters keep no registry, so their order is the home shard.
func (c *Cluster) readOrder(dst []int, name string) []int {
	reps := c.appendReplicaSet(dst, name)
	if c.cfg.Replicas == 1 {
		return reps
	}
	c.regMu.RLock()
	meta, ok := c.registry[name]
	c.regMu.RUnlock()
	if !ok || len(meta.acked) == 0 {
		return reps
	}
	order := make([]int, 0, len(reps))
	order = append(order, meta.acked...)
	for _, s := range reps {
		if !slices.Contains(meta.acked, s) {
			order = append(order, s)
		}
	}
	return order
}

// opDeadline starts one operation's time budget.
func (c *Cluster) opDeadline() time.Time {
	if c.cfg.OpTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.cfg.OpTimeout)
}

// backoff is the capped exponential retry delay with deterministic
// jitter in [d/2, d): doubling per attempt, capped at MaxBackoff, jitter
// drawn from the cluster's seeded generator so a seeded test run sleeps
// the same schedule every time.
func (c *Cluster) backoff(attempt int) time.Duration {
	d := c.cfg.Retry.BaseBackoff
	for i := 0; i < attempt && d < c.cfg.Retry.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.Retry.MaxBackoff {
		d = c.cfg.Retry.MaxBackoff
	}
	x := c.rng.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(x%uint64(half))
}

// Interned shard-index labels for the profiling taxonomy: formatting the
// index per operation would put an allocation on the serving hot path
// even though labels only matter while a harness runs.
var shardLabels = [...]string{"0", "1", "2", "3", "4", "5", "6", "7",
	"8", "9", "10", "11", "12", "13", "14", "15"}

func shardLabel(i int) string {
	if i >= 0 && i < len(shardLabels) {
		return shardLabels[i]
	}
	return strconv.Itoa(i)
}

// doOp wraps one cluster operation in the profiling label taxonomy
// (sdp-op=put|get, sdp-shard=home shard) when a harness is active. Its
// two call sites, readReplicas and writeReplicas, branch on
// profiling.Enabled() first, so the disabled path builds no closure and
// no labels.
//
//shef:guarded
func doOp(op string, shard int, f func() error) error {
	var err error
	profiling.Do(context.Background(), func() { err = f() },
		"sdp-op", op, "sdp-shard", shardLabel(shard))
	return err
}

// replicaOp is one replica attempt's body. The faultinject.Result carries
// a pending corruption decision for paths that can apply it where a MAC
// will catch it (the sealed client path); plaintext paths ignore it.
type replicaOp func(shard int, n *Node, fi faultinject.Result) error

// attemptOnce runs one attempt against one shard: failure-detector gate,
// availability check, fault-injection consult, then the operation body.
// The second result reports whether the shard was genuinely exercised —
// health-gate skips are synthetic and must not feed the failure detector
// (they would keep resetting a Down shard's recovery progress).
func (c *Cluster) attemptOnce(site string, shard int, slot *shardSlot, do replicaOp) (error, bool) {
	if !slot.health.allowOp() {
		return &ShardError{Shard: shard, Op: site, Err: ErrShardDown}, false
	}
	n := slot.node.Load()
	if n == nil || slot.partitioned.Load() {
		return &ShardError{Shard: shard, Op: site, Err: ErrShardDown}, true
	}
	var fi faultinject.Result
	if faultinject.Enabled() {
		fi = faultinject.Check(site, shard)
		if fi.Err != nil {
			return &ShardError{Shard: shard, Op: site, Err: fi.Err}, true
		}
	}
	if err := do(shard, n, fi); err != nil {
		return &ShardError{Shard: shard, Op: site, Err: err}, true
	}
	return nil, true
}

// tryReplica drives one replica's retry loop: up to MaxAttempts with
// capped jittered backoff for transient failures, stopping immediately on
// application rejections (authoritative), unreachable shards (fall back
// to the next replica instead of burning the budget here), context
// cancellation, and the operation deadline.
func (c *Cluster) tryReplica(ctx context.Context, site string, shard int, deadline time.Time, do replicaOp) error {
	slot := c.slots[shard]
	var firstErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			if firstErr != nil {
				return firstErr
			}
			return &ShardError{Shard: shard, Op: site, Err: ErrShardDown}
		}
		err, attempted := c.attemptOnce(site, shard, slot, do)
		if err == nil {
			slot.health.success()
			return nil
		}
		if !Retryable(err) {
			return err
		}
		if attempted {
			slot.health.failure()
		}
		if firstErr == nil {
			firstErr = err
		}
		if errors.Is(err, ErrShardDown) {
			return firstErr
		}
		if attempt+1 >= c.cfg.Retry.MaxAttempts {
			return firstErr
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(attempt))
	}
}

// readReplicas serves a read from the first replica that answers,
// walking the replica set in witness-first order. An application rejection
// from one replica is remembered but does not stop the walk — a freshly
// restarted replica legitimately answers "not found" for a file its
// peers hold. The outcome ranking: any success wins; all-rejections
// returns the first rejection (the authoritative answer); any
// infrastructure failure in the mix degrades the read.
//
// It is the one entry every read takes, so it holds the read direction's
// profiling site.
func (c *Cluster) readReplicas(ctx context.Context, name string, do replicaOp) error {
	if profiling.Enabled() {
		return doOp("get", c.ShardFor(name), func() error { return c.walkReplicas(ctx, name, do) })
	}
	return c.walkReplicas(ctx, name, do)
}

// walkReplicas is readReplicas without the profiling labels.
func (c *Cluster) walkReplicas(ctx context.Context, name string, do replicaOp) error {
	var buf [inlineReplicas]int
	reps := c.readOrder(buf[:0], name)
	deadline := c.opDeadline()
	var firstApp, firstInfra error
	for idx, shard := range reps {
		err := c.tryReplica(ctx, FaultSiteGet, shard, deadline, do)
		if err == nil {
			if idx > 0 {
				c.fallbacks.Add(1)
			}
			c.gets.Add(1)
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			c.errs.Add(1)
			return err
		}
		if Retryable(err) {
			if firstInfra == nil {
				firstInfra = err
			}
		} else if firstApp == nil {
			firstApp = err
		}
	}
	c.errs.Add(1)
	if firstInfra == nil {
		return firstApp
	}
	return fmt.Errorf("%w: all %d replica(s) of %q failed: %w", ErrDegraded, len(reps), name, firstInfra)
}

// writeReplicas applies a write to every replica and acknowledges at a
// majority quorum (Replicas/2+1). A quorum met below full replication is
// still acknowledged — that is degraded mode, counted so operators see
// it — and anti-entropy repairs the laggards at the next Sync. Below
// quorum the write fails with ErrQuorumLost (unless every replica
// rejected it at the application level, which is the authoritative
// verdict and surfaces as-is).
//
// It is the one entry every write takes, so it holds the write
// direction's profiling site.
func (c *Cluster) writeReplicas(ctx context.Context, user, name string, do replicaOp) error {
	if profiling.Enabled() {
		return doOp("put", c.ShardFor(name), func() error { return c.writeQuorum(ctx, user, name, do) })
	}
	return c.writeQuorum(ctx, user, name, do)
}

// writeQuorum is writeReplicas without the profiling labels.
func (c *Cluster) writeQuorum(ctx context.Context, user, name string, do replicaOp) error {
	mu := c.fileLock(name)
	mu.Lock()
	defer mu.Unlock()
	var repBuf, ackBuf [inlineReplicas]int
	reps := c.appendReplicaSet(repBuf[:0], name)
	quorum := len(reps)/2 + 1
	deadline := c.opDeadline()
	ackedShards := ackBuf[:0]
	var firstApp, firstInfra error
	for _, shard := range reps {
		err := c.tryReplica(ctx, FaultSitePut, shard, deadline, do)
		switch {
		case err == nil:
			ackedShards = append(ackedShards, shard)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if firstInfra == nil {
				firstInfra = err
			}
		case Retryable(err):
			if firstInfra == nil {
				firstInfra = err
			}
		default:
			if firstApp == nil {
				firstApp = err
			}
		}
	}
	if len(ackedShards) >= quorum {
		c.puts.Add(1)
		if len(ackedShards) < len(reps) {
			c.degradedWrites.Add(1)
		}
		if c.cfg.Replicas > 1 {
			c.registerFile(name, user, slices.Clone(ackedShards))
		}
		return nil
	}
	c.errs.Add(1)
	if firstInfra == nil {
		return firstApp
	}
	c.quorumFails.Add(1)
	return fmt.Errorf("%w: %d/%d replicas acked %q: %w", ErrQuorumLost, len(ackedShards), quorum, name, firstInfra)
}

// registerFile records an acknowledged write and its witness set in the
// CN-side file index anti-entropy walks.
func (c *Cluster) registerFile(name, user string, acked []int) {
	c.regMu.Lock()
	c.registry[name] = fileMeta{user: user, acked: acked}
	c.regMu.Unlock()
}

// CrashShard kills a shard in place: the node (and all its state — a
// crashed Storage Node's DRAM does not survive) is dropped atomically,
// so in-flight operations against the old node finish against a
// consistent instance and new ones fail with ErrShardDown until
// RestartShard.
func (c *Cluster) CrashShard(i int) {
	c.slots[i].node.Store(nil)
}

// RestartShard boots a replacement node for a crashed shard with the
// SAME session DEK — the CN resumes the provisioning session it
// established at bring-up, so existing client TLS sessions keep working —
// and pushes the full current user-key database. The shard comes back
// empty (Recovering in the failure detector); anti-entropy refills it at
// the next Sync.
func (c *Cluster) RestartShard(i int) error {
	slot := c.slots[i]
	n, err := NewNode(c.cfg.Node, slot.dek, c.cfg.Params)
	if err != nil {
		return &ShardError{Shard: i, Op: "restart", Err: err}
	}
	slot.node.Store(n)
	slot.partitioned.Store(false)
	if err := c.reprovisionShard(i); err != nil {
		return err
	}
	slot.health.markRecovering()
	return nil
}

// PartitionShard makes a shard unreachable without losing its state —
// the network-partition half of the fault model. Heal with HealShard.
// Only the resilience and chaos tests call the pair: no acknowledged
// write is lost, and no replica serves stale or forged data, across
// partitions (DESIGN.md §9).
func (c *Cluster) PartitionShard(i int) {
	c.slots[i].partitioned.Store(true)
}

// HealShard ends a shard's partition. The key database may have rotated
// while it was unreachable, so the CN re-pushes the full current
// database before traffic returns.
func (c *Cluster) HealShard(i int) error {
	slot := c.slots[i]
	slot.partitioned.Store(false)
	if err := c.reprovisionShard(i); err != nil {
		return err
	}
	slot.health.markRecovering()
	return nil
}

// antiEntropy walks the acknowledged-file index and repairs every
// replica set to the majority version. This is the CN-driven repair
// channel: the CN holds every shard's session DEK, so reading a replica
// for comparison and rewriting a divergent one happens inside the trust
// domain the provisioning session already established.
//
// Repair order is sorted by file name: chaos runs replay fault schedules
// seed-for-seed, and walking the registry in map order would make which
// file hits an injected fault differ run to run.
//
//shef:deterministic
func (c *Cluster) antiEntropy() error {
	c.regMu.RLock()
	names := make([]string, 0, len(c.registry))
	metas := make(map[string]fileMeta, len(c.registry))
	//shef:ignore snapshot collection; the walk below runs in sorted order
	for name, meta := range c.registry {
		names = append(names, name)
		metas[name] = meta
	}
	c.regMu.RUnlock()
	sort.Strings(names)
	var errs []error
	for _, name := range names {
		if err := c.repairFile(name, metas[name]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// repairFile converges one file's replica set: read every reachable
// replica, pick the canonical version, rewrite everyone else. The
// canonical copy is the first readable witness of the last acknowledged
// write — a witness is guaranteed to hold at least that version, while a
// raw majority vote can lose an acknowledged write (two stale survivors
// outvoting the one fresh replica after a crash). Only when no witness
// is readable does the vote run as a fallback (majority byte-identical;
// ties go to the earliest replica in placement order). Unreachable
// replicas are skipped; they converge at the Sync after they rejoin. A
// replica whose read fails (missing after a restart, or its tamper
// latch tripped on corrupted storage) is treated as divergent and
// rewritten — unless its engine set is latched, in which case the
// rewrite fails too and the error tells the operator to restart that
// node.
func (c *Cluster) repairFile(name string, meta fileMeta) error {
	mu := c.fileLock(name)
	mu.Lock()
	defer mu.Unlock()
	// Re-snapshot under the lock: a write may have advanced the witness
	// set between the anti-entropy walk's snapshot and now.
	c.regMu.RLock()
	if cur, ok := c.registry[name]; ok {
		meta = cur
	}
	c.regMu.RUnlock()
	user := meta.user
	reps := c.replicaSet(name)
	type version struct {
		shard int
		data  []byte
	}
	var have []version
	var stale []int
	for _, shard := range reps {
		slot := c.slots[shard]
		n := slot.node.Load()
		if n == nil || slot.partitioned.Load() {
			continue
		}
		data, err := n.Get(user, name)
		if err != nil {
			stale = append(stale, shard)
			continue
		}
		have = append(have, version{shard, data})
	}
	if len(have) == 0 {
		return &ShardError{Shard: reps[0], Op: "repair",
			Err: fmt.Errorf("file %q unreadable on every reachable replica: %w", name, ErrDegraded)}
	}
	winnerShard := -1
	var winner []byte
	for _, w := range meta.acked {
		for _, v := range have {
			if v.shard == w {
				winnerShard, winner = v.shard, v.data
				break
			}
		}
		if winnerShard >= 0 {
			break
		}
	}
	if winnerShard < 0 {
		best, bestCount := 0, 0
		for i := range have {
			count := 0
			for j := range have {
				if bytes.Equal(have[i].data, have[j].data) {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = i, count
			}
		}
		winnerShard, winner = have[best].shard, have[best].data
	}
	var errs []error
	holds := map[int]bool{winnerShard: true}
	rewrite := func(shard int) {
		n := c.slots[shard].node.Load()
		if n == nil {
			return
		}
		if err := n.Put(user, name, winner); err != nil {
			errs = append(errs, &ShardError{Shard: shard, Op: "repair", Err: err})
			return
		}
		c.repairs.Add(1)
		holds[shard] = true
	}
	for _, v := range have {
		if v.shard == winnerShard {
			continue
		}
		if bytes.Equal(v.data, winner) {
			holds[v.shard] = true
		} else {
			rewrite(v.shard)
		}
	}
	for _, shard := range stale {
		rewrite(shard)
	}
	// Refresh the witness set: every replica now verified (or rewritten)
	// to hold the canonical bytes is a witness, so reads and the next
	// repair pass don't depend on the original witness staying alive.
	var converged []int
	for _, shard := range reps {
		if holds[shard] {
			converged = append(converged, shard)
		}
	}
	c.registerFile(name, user, converged)
	return errors.Join(errs...)
}
