// Package faultinject is the repo's deterministic fault-injection layer:
// a seed-driven plan of error returns, latency spikes, payload corruption,
// node crashes, and network partitions that the serving-tier packages
// (sdp, hostapp, attest) consult at their trust/transport boundaries.
//
// The package mirrors internal/profiling's switchboard design: every
// instrumentation site is gated behind an atomic Enabled() check, so with
// no plan active the entire layer compiles down to one atomic load and a
// predicted branch — the zero-alloc steady-state hot paths stay zero-alloc
// and production traffic pays nothing for the instrumentation.
//
// Determinism is the point. Every decision is a pure function of
// (plan seed, site name, shard, per-site operation index): the same plan
// over the same operation sequence injects the same faults, so a chaos
// run that finds a bug replays byte-for-byte from its seed
// (SHEF_FAULT_SEED in CI), and the chaos suite's assertions — no lost
// acknowledged write, no plaintext exposure, bounded tail latency — hold
// across reruns instead of flaking.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindError makes the operation return a transient error (the model
	// of a dropped request, an I/O error, a timed-out RPC). Retryable.
	KindError Kind = iota
	// KindLatency stalls the operation (a slow disk, a GC pause, a
	// congested link) before letting it proceed.
	KindLatency
	// KindCorrupt flips deterministic bytes in the operation's payload —
	// in-transit corruption the authentication layer must catch.
	KindCorrupt
	// KindCrash fails the operation as a dead node would: the target is
	// gone until the plan's window closes (or the node restarts).
	KindCrash
	// KindPartition fails the operation as an unreachable node would:
	// same caller-visible shape as a crash, but the target keeps its
	// state and returns intact when the partition heals.
	KindPartition
)

// String names the fault class for error text and logs.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindCorrupt:
		return "corrupt"
	case KindCrash:
		return "crash"
	case KindPartition:
		return "partition"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the sentinel every injected fault unwraps to. Callers
// classify with errors.Is: an injected fault is transient infrastructure
// trouble (retryable, health-relevant), never an application rejection.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault is one injected failure, carrying the site identity so operators
// (and tests) can tell exactly which decision fired.
type Fault struct {
	Kind   Kind
	Target string
	Shard  int
	Op     uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s shard %d op %d", f.Kind, f.Target, f.Shard, f.Op)
}

// Unwrap ties every Fault to ErrInjected.
func (f *Fault) Unwrap() error { return ErrInjected }

// Rule arms one fault at one site. The zero Shard matches shard 0; use
// AnyShard to match all shards of a target.
type Rule struct {
	// Target selects the instrumentation site ("sdp.put", "sdp.get",
	// "attest.conn", ...). Empty matches every site.
	Target string
	// Shard selects one shard/session index, or AnyShard for all.
	Shard int
	// Kind is the fault class to inject.
	Kind Kind
	// Prob is the per-operation injection probability in [0, 1]. The
	// draw is deterministic in (seed, target, shard, op index).
	Prob float64
	// Latency is the stall for KindLatency faults.
	Latency time.Duration
	// FromOp/ToOp bound the rule to a window of the site's operation
	// counter: the rule is live for ops in [FromOp, ToOp). ToOp == 0
	// means no upper bound. This is how deterministic crash windows and
	// partition episodes are scheduled without wall clocks.
	FromOp, ToOp uint64
}

// AnyShard makes a rule match every shard of its target.
const AnyShard = -1

// Plan is an armed fault schedule. Activate installs it process-wide;
// Deactivate removes it. A Plan may be reused across activations — its
// per-site counters keep advancing, preserving determinism across
// phases of one test.
type Plan struct {
	// Seed drives every probabilistic draw and corruption offset.
	Seed int64
	// Rules are evaluated in order; every matching live rule fires
	// independently (a latency rule may stall an op that then errors).
	Rules []Rule

	mu       sync.Mutex
	counters map[siteKey]*atomic.Uint64
}

type siteKey struct {
	target string
	shard  int
}

// sleep applies a latency fault's stall. Only tests replace it: they
// check that a latency rule stalls its op for exactly the rule's Latency,
// once, and lets the op proceed, without sleeping or reading a clock.
var sleep = time.Sleep

// active is the installed plan; nil means fault injection is off. The
// single pointer load is the entire disabled-path cost at every site.
var active atomic.Pointer[Plan]

// Enabled reports whether a plan is installed. Instrumented sites check
// it before doing anything else, so the disabled hot path performs one
// atomic load and a predicted branch — no allocation, no map lookup.
func Enabled() bool { return active.Load() != nil }

// Activate installs the plan process-wide. Exactly one plan is active at
// a time; activating a new plan replaces the old.
func Activate(p *Plan) {
	if p != nil {
		p.mu.Lock()
		if p.counters == nil {
			p.counters = make(map[siteKey]*atomic.Uint64)
		}
		p.mu.Unlock()
	}
	active.Store(p)
}

// Deactivate removes the active plan; every site reverts to the
// single-atomic-load disabled path.
func Deactivate() { active.Store(nil) }

// Result is one site consultation: the injected error (nil when the op
// may proceed) and whether the payload should be corrupted, with the
// deterministic seed for the corruption pass.
type Result struct {
	Err         error
	Corrupt     bool
	CorruptSeed uint64
}

// Check consults the active plan at a site. It advances the site's
// operation counter, applies latency stalls inline, and returns the
// fault decision. With no active plan it returns the zero Result (the
// caller should gate on Enabled() first and skip the call entirely).
func Check(target string, shard int) Result {
	p := active.Load()
	if p == nil {
		return Result{}
	}
	return p.check(target, shard)
}

func (p *Plan) check(target string, shard int) Result {
	op := p.counter(target, shard).Add(1) - 1
	var res Result
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Target != "" && r.Target != target {
			continue
		}
		if r.Shard != AnyShard && r.Shard != shard {
			continue
		}
		if op < r.FromOp || (r.ToOp != 0 && op >= r.ToOp) {
			continue
		}
		if !p.draw(uint64(i), target, shard, op, r.Prob) {
			continue
		}
		switch r.Kind {
		case KindLatency:
			if r.Latency > 0 {
				sleep(r.Latency)
			}
		case KindCorrupt:
			res.Corrupt = true
			res.CorruptSeed = p.mix(uint64(i)^0xc0de, target, shard, op)
		default: // KindError, KindCrash, KindPartition
			if res.Err == nil {
				res.Err = &Fault{Kind: r.Kind, Target: target, Shard: shard, Op: op}
			}
		}
	}
	return res
}

// counter returns the per-(target, shard) operation counter, creating it
// on first use. Only the enabled path pays the map access.
func (p *Plan) counter(target string, shard int) *atomic.Uint64 {
	k := siteKey{target, shard}
	p.mu.Lock()
	c, ok := p.counters[k]
	if !ok {
		c = new(atomic.Uint64)
		p.counters[k] = c
	}
	p.mu.Unlock()
	return c
}

// draw is the deterministic probability draw: a splitmix64 hash of the
// rule index, site, and op index against the rule's threshold.
func (p *Plan) draw(rule uint64, target string, shard int, op uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	x := p.mix(rule, target, shard, op)
	// Top 53 bits to a float in [0, 1).
	return float64(x>>11)/(1<<53) < prob
}

// mix hashes (seed, rule, target, shard, op) with FNV-1a + splitmix64.
func (p *Plan) mix(rule uint64, target string, shard int, op uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(target); i++ {
		h = (h ^ uint64(target[i])) * 1099511628211
	}
	x := uint64(p.Seed) ^ h ^ rule<<48 ^ uint64(uint32(shard))<<16 ^ op
	return splitmix64(x)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CorruptBytes deterministically flips bytes in buf from a corruption
// seed (Result.CorruptSeed): one flip per 256 bytes, at least one. The
// flips model in-transit bit errors the MAC layer must catch — never a
// silent no-op, even for one-byte payloads.
func CorruptBytes(buf []byte, seed uint64) {
	if len(buf) == 0 {
		return
	}
	n := len(buf)/256 + 1
	x := seed
	for i := 0; i < n; i++ {
		x = splitmix64(x)
		pos := int(x % uint64(len(buf)))
		bit := byte(1) << ((x >> 32) % 8)
		buf[pos] ^= bit
	}
}
