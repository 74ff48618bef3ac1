// Package parallel splits a loop's index range across Ps. It is the one
// fan-out helper of the host code: accel's conv and DNNWeaver kernels
// split their multiply-accumulate loops through For, and the Shield's
// stream and gather batches split their chunk crypto through a Group.
//
// Workers are started per split: each one has finished its range when the
// split returns and exits right after, so nothing runs between splits. A
// split hands its tasks over a package channel that holds no task once
// every split has returned, so no package state refers to a caller's data
// afterwards.
package parallel

import (
	"runtime"
	"sync"
)

// Body is the loop body of a split: Run processes indexes [lo, hi) as
// worker w. Worker indexes are dense, from 0, so a body can keep one
// piece of scratch per worker.
type Body interface {
	Run(w, lo, hi int)
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

// task is one worker's share of a split.
type task struct {
	g      *Group
	body   Body
	w      int
	lo, hi int
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
// 1 MiB Shield stream op over the first 25 ops at four Ps.
var handoff = make(chan *task)

// worker runs one task. It captures nothing, so starting it allocates
// nothing once the runtime has a dead goroutine to reuse.
func worker() {
	t := <-handoff
	t.body.Run(t.w, t.lo, t.hi)
	t.g.wg.Done()
}

// Group is the reusable state of one caller's splits: the tasks and the
// wait group. Reusing a Group makes a split allocation-free in steady
// state. A Group runs one split at a time; its owner serialises its
// splits (the Shield holds its engine-set mutex).
type Group struct {
	wg    sync.WaitGroup
	tasks []task
}

// Run calls body.Run once for each of p contiguous ranges that tile
// [0, n): worker w gets [w*n/p, (w+1)*n/p). Worker 0 runs on the calling
// goroutine and the others on goroutines started for this split; Run
// returns once all of them have finished. At p <= 1 it calls
// body.Run(0, 0, n) inline and starts no goroutine. p is capped at n.
func (g *Group) Run(p, n int, body Body) {
	p = min(p, n)
	if p <= 1 {
		body.Run(0, 0, n)
		return
	}
	if len(g.tasks) < p {
		g.tasks = make([]task, p)
	}
	g.wg.Add(p - 1)
	for w := 1; w < p; w++ {
		t := &g.tasks[w]
		*t = task{g: g, body: body, w: w, lo: w * n / p, hi: (w + 1) * n / p}
		go worker()
		handoff <- t
	}
	body.Run(0, 0, n/p)
	g.wg.Wait()
}

// For splits [0, n) into one contiguous range per P and calls body(lo,
// hi) once for each, running the first range on the calling goroutine
// and waiting for the rest. At one P it calls body(0, n) inline and
// starts no goroutine. Each output the body writes must be written by
// exactly one range.
func For(n int, body func(lo, hi int)) {
	var g Group
	g.Run(Workers(n, 1), n, Func(body))
}
