// Package parallel splits a loop's index range across Ps. accel's conv
// and DNNWeaver kernels split their multiply-accumulate loops through For,
// and the Shield's stream and gather batches and the Data Owner's region
// seal and open split their chunk crypto through a Group. Fan-outs over a
// few independent objects rather than a range start one goroutine each
// instead: Shield.Flush per engine set, sdp.NewCluster per shard.
//
// A split cuts its range into ascending fixed-size pieces, and its
// workers claim them from a shared cursor until none is left, so a worker
// that starts late (usually the caller, waiting for an idle P to pick it
// up after it hands off a task) takes fewer pieces instead of holding up
// the split with a fixed share. A body may also commit the finished
// prefix of the range in order, on the calling goroutine, while the
// other workers are still running (Committer).
//
// Workers are started per split: each one has run out of pieces when the
// split returns and exits right after, so nothing runs between splits. A
// split hands its tasks over a package channel that holds no task once
// every split has returned, so no package state refers to a caller's data
// afterwards.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Body is the loop body of a split: Run processes indexes [lo, hi), one
// piece, as worker w. Worker indexes are dense, from 0, and the caller
// is worker 0, so a body can keep one piece of scratch per worker. A
// worker runs its pieces one at a time and in ascending order, but the
// pieces of different workers interleave.
type Body interface {
	Run(w, lo, hi int)
}

// Committer is a Body with an in-order commit hook. Commit(done) runs on
// the calling goroutine only, each time the finished prefix [0, done) of
// the range grows: between the caller's own pieces, and after its last
// claim as the other workers' pieces land. Every piece of the prefix has
// returned from Run, and whatever it wrote before returning is visible
// to Commit, while pieces beyond it may still be running. The prefixes
// Commit sees grow strictly and end at n before the split returns.
type Committer interface {
	Body
	Commit(done int)
}

// Func adapts a plain range function to Body, ignoring the worker index.
type Func func(lo, hi int)

// Run calls f(lo, hi).
func (f Func) Run(_, lo, hi int) { f(lo, hi) }

// Workers returns how many workers a split of work units should use when
// each worker must get at least grain units to pay for its hand-off: one
// per P, no more than work/grain, and at least one. Work below two grains
// gets one worker without reading GOMAXPROCS, which takes a runtime lock.
func Workers(work, grain int) int {
	if n := work / max(grain, 1); n > 1 {
		return min(runtime.GOMAXPROCS(0), n)
	}
	return 1
}

// maxPieces bounds the pieces of one split: a piece holds at least
// ⌈n/maxPieces⌉ indexes.
const maxPieces = 64

// pieceSize is the piece of a split of n indexes over p workers: about
// eight pieces per worker, so a worker that starts late or runs slow
// costs the split at most an eighth of its share, but no more than
// maxPieces pieces, so a piece still carries enough work to amortise
// its claim and, for a Committer, the commit between pieces.
func pieceSize(p, n int) int {
	return max(n/(8*p), (n+maxPieces-1)/maxPieces)
}

// handoff carries tasks to the workers a split starts. Each worker takes
// exactly one task, and a split starts its worker before it sends the
// task, so every sent task has a worker on its way: a task a worker takes
// may belong to another split, which is harmless.
//
// The channel is unbuffered on purpose. The sender parks until a worker
// takes the task; usually its own new worker, which runs on the sender's
// P while an idle P picks up the sender. So a worker exits on the P that
// started it, and the runtime reuses its goroutine for the next split
// there. With a buffered channel the sender kept running, its workers
// exited on other Ps, and the sender's P had to allocate a new goroutine
// on most splits until every P's free list had filled: 3–5 allocs per
// 1 MiB Shield stream op over the first 25 ops at four Ps. The new
// worker claims pieces at once, so the sender's late start costs the
// split nothing but the sender's own share.
var handoff = make(chan *task)

// task is one helper's place in a split.
type task struct {
	g *Group
	w int
}

// worker runs one task. It captures nothing, so starting it allocates
// nothing once the runtime has a dead goroutine to reuse.
func worker() {
	t := <-handoff
	t.g.work(t.w, nil)
	t.g.wg.Done()
}

// Group is the reusable state of one caller's splits: the task slots,
// the piece cursor and done flags, and the wait group. Reusing a Group
// makes a split allocation-free in steady state. A Group runs one split
// at a time; its owner serialises its splits (the Shield holds its
// engine-set mutex).
type Group struct {
	wg    sync.WaitGroup
	tasks []task

	// The split in progress, set before its helpers start.
	body         Body
	n, size      int
	pieces       int
	next         atomic.Int64           // the next piece to claim
	done         [maxPieces]atomic.Bool // piece k has returned from Run
	committedEnd int                    // pieces [0, committedEnd) are committed; caller only
}

// Run calls body.Run on the ascending pieces of [0, n), each exactly
// once, with p workers claiming them: the calling goroutine, as worker
// 0, and p-1 goroutines started for this split. Run returns once every
// piece has run and every helper has exited. If body is a Committer, the
// caller commits the finished prefix as it grows and, once it has no
// piece left to claim, yields its P until the helpers' last pieces land;
// it does not park, since it waits for at most one piece.
//
// At p <= 1 Run calls body.Run(0, 0, n) inline, then Commit(n) for a
// Committer, and starts no goroutine. p is capped at n.
func (g *Group) Run(p, n int, body Body) {
	c, _ := body.(Committer)
	p = min(p, n)
	if p <= 1 {
		body.Run(0, 0, n)
		if c != nil {
			c.Commit(n)
		}
		return
	}
	g.body, g.n, g.size = body, n, pieceSize(p, n)
	g.pieces = (n + g.size - 1) / g.size
	g.next.Store(0)
	for k := range g.pieces {
		g.done[k].Store(false)
	}
	g.committedEnd = 0
	if len(g.tasks) < p {
		g.tasks = make([]task, p)
	}
	g.wg.Add(p - 1)
	for w := 1; w < p; w++ {
		t := &g.tasks[w]
		*t = task{g: g, w: w}
		go worker()
		handoff <- t
	}
	g.work(0, c)
	if c != nil {
		for !g.commit(c) {
			runtime.Gosched()
		}
	}
	g.wg.Wait()
}

// work claims pieces as worker w until none is left, runs each and marks
// it done; the caller passes its Committer, if any, to commit after each
// of its pieces.
func (g *Group) work(w int, c Committer) {
	for {
		k := int(g.next.Add(1) - 1)
		if k >= g.pieces {
			return
		}
		g.body.Run(w, k*g.size, min((k+1)*g.size, g.n))
		g.done[k].Store(true)
		if c != nil {
			g.commit(c)
		}
	}
}

// commit extends the committed prefix over the pieces that are done and,
// if it grew, hands it to c. It reports whether every piece is committed.
func (g *Group) commit(c Committer) bool {
	k := g.committedEnd
	for k < g.pieces && g.done[k].Load() {
		k++
	}
	if k > g.committedEnd {
		g.committedEnd = k
		c.Commit(min(k*g.size, g.n))
	}
	return k == g.pieces
}

// For splits [0, n) into pieces claimed by one worker per P and calls
// body(lo, hi) once for each piece, running pieces on the calling
// goroutine too and waiting for the rest. At one P it calls body(0, n)
// inline and starts no goroutine. Each output the body writes must be
// written by exactly one piece.
func For(n int, body func(lo, hi int)) {
	var g Group
	g.Run(Workers(n, 1), n, Func(body))
}
