package parallel

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs runs f at GOMAXPROCS=procs and restores the old setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestParallelForRanges: at every width, For calls body on pieces that
// cover [0, n) exactly once.
func TestParallelForRanges(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(procs, func() {
			for n := 0; n <= 200; n += 1 + n/8 {
				var mu sync.Mutex
				var got [][2]int
				For(n, func(lo, hi int) {
					mu.Lock()
					got = append(got, [2]int{lo, hi})
					mu.Unlock()
				})
				slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
				next := 0
				for _, r := range got {
					if r[0] != next || r[1] < r[0] || (r[1] == r[0] && n > 0) {
						t.Errorf("GOMAXPROCS=%d n=%d: pieces %v do not tile [0, %d)", procs, n, got, n)
						break
					}
					next = r[1]
				}
				if next != n {
					t.Errorf("GOMAXPROCS=%d n=%d: pieces %v end at %d", procs, n, got, next)
				}
			}
		})
	}
}

// TestParallelForInlineAtOneP: at one P, For runs body once over
// the whole range without starting a goroutine.
func TestParallelForInlineAtOneP(t *testing.T) {
	withProcs(1, func() {
		before := runtime.NumGoroutine()
		calls, during := 0, 0
		For(16, func(lo, hi int) {
			calls++
			during = runtime.NumGoroutine()
			if lo != 0 || hi != 16 {
				t.Errorf("body(%d, %d), want body(0, 16)", lo, hi)
			}
		})
		if calls != 1 || during != before {
			t.Fatalf("%d calls with %d goroutines running, want 1 call with %d", calls, during, before)
		}
	})
}

// pieceRecorder is a Committer that records the pieces each worker ran,
// in its order, how often each index ran, and the prefixes it was handed
// to commit. After each commit it checks that every index of the prefix
// has run.
type pieceRecorder struct {
	t       *testing.T
	mu      sync.Mutex
	pieces  map[int][][2]int
	ran     []atomic.Int32
	commits []int
}

func newPieceRecorder(t *testing.T, n int) *pieceRecorder {
	return &pieceRecorder{t: t, pieces: map[int][][2]int{}, ran: make([]atomic.Int32, n)}
}

func (r *pieceRecorder) Run(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.ran[i].Add(1)
	}
	r.mu.Lock()
	r.pieces[w] = append(r.pieces[w], [2]int{lo, hi})
	r.mu.Unlock()
}

func (r *pieceRecorder) Commit(done int) {
	r.commits = append(r.commits, done)
	for i := range done {
		if r.ran[i].Load() != 1 {
			r.t.Errorf("commit of [0, %d) before index %d ran", done, i)
			return
		}
	}
}

// check fails the test unless every index ran once, each worker's pieces
// ascend, and the commits saw strictly growing prefixes ending at n.
func (r *pieceRecorder) check(what string, n, workers int) {
	t := r.t
	t.Helper()
	for i := range r.ran {
		if got := r.ran[i].Load(); got != 1 {
			t.Errorf("%s: index %d ran %d times", what, i, got)
		}
	}
	if len(r.pieces) > workers {
		t.Errorf("%s: %d workers ran pieces, want at most %d", what, len(r.pieces), workers)
	}
	for w, ps := range r.pieces {
		if w < 0 || w >= workers {
			t.Errorf("%s: worker index %d outside [0, %d)", what, w, workers)
		}
		for k := 1; k < len(ps); k++ {
			if ps[k][0] < ps[k-1][1] {
				t.Errorf("%s: worker %d ran %v after %v", what, w, ps[k], ps[k-1])
			}
		}
	}
	for k := 1; k < len(r.commits); k++ {
		if r.commits[k] <= r.commits[k-1] {
			t.Errorf("%s: commits %v do not grow", what, r.commits)
			break
		}
	}
	if len(r.commits) == 0 || r.commits[len(r.commits)-1] != n {
		t.Errorf("%s: commits %v do not end at %d", what, r.commits, n)
	}
}

// TestGroupRunWorkers: a reused Group runs every index of [0, n) exactly
// once, on at most min(p, n) workers whose pieces each ascend, and hands
// a Committer strictly growing prefixes that end at n, at any number of
// Ps. At p <= 1 the body runs once, inline, over the whole range.
func TestGroupRunWorkers(t *testing.T) {
	var g Group
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			for p := 0; p <= 5; p++ {
				for _, n := range []int{0, 1, 3, 4, 7, 64, 100, 2048} {
					what := fmt.Sprintf("GOMAXPROCS=%d p=%d n=%d", procs, p, n)
					r := newPieceRecorder(t, n)
					g.Run(p, n, r)
					q := max(1, min(p, n))
					r.check(what, n, q)
					if q == 1 && !slices.Equal(r.pieces[0], [][2]int{{0, n}}) {
						t.Errorf("%s: ran %v inline, want [[0 %d]]", what, r.pieces[0], n)
					}
				}
			}
		})
	}
}

// blockingHelper is a Committer whose helpers hold each piece until
// every piece has been claimed, so the caller runs out of pieces while
// the helpers' pieces are still in flight.
type blockingHelper struct {
	*pieceRecorder
	g *Group
}

func (b *blockingHelper) Run(w, lo, hi int) {
	for w != 0 && b.g.next.Load() < int64(b.g.pieces) {
		runtime.Gosched()
	}
	b.pieceRecorder.Run(w, lo, hi)
}

// TestGroupRunCommitWaitsForBlockedHelper: helpers that hold their pieces
// until every piece is claimed still give a complete, in-order commit;
// the caller waits for their pieces after its last claim.
func TestGroupRunCommitWaitsForBlockedHelper(t *testing.T) {
	var g Group
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			for _, p := range []int{2, 3, 4} {
				const n = 256
				b := &blockingHelper{pieceRecorder: newPieceRecorder(t, n), g: &g}
				g.Run(p, n, b)
				b.check(fmt.Sprintf("GOMAXPROCS=%d p=%d", procs, p), n, p)
			}
		})
	}
}

// countingBody is a Committer that only counts, so a split of it
// allocates nothing of its own.
type countingBody struct {
	ran     atomic.Int64
	commits int
}

func (c *countingBody) Run(_, lo, hi int) { c.ran.Add(int64(hi - lo)) }
func (c *countingBody) Commit(int)        { c.commits++ }

// TestGroupRunAllocsNothing: a reused Group splits without allocating,
// with or without a commit hook.
func TestGroupRunAllocsNothing(t *testing.T) {
	withProcs(4, func() {
		var g Group
		var body countingBody
		plain := Func(func(lo, hi int) { body.ran.Add(int64(hi - lo)) })
		g.Run(4, 1024, &body) // the first split sizes the task slots
		if allocs := testing.AllocsPerRun(50, func() {
			g.Run(4, 1024, &body)
			g.Run(4, 1024, plain)
		}); allocs != 0 {
			t.Errorf("a reused Group allocates %.1f times per split pair, want 0", allocs)
		}
		if got := body.ran.Load(); got != 1024*(1+2*51) {
			t.Errorf("%d indexes ran, want %d", got, 1024*(1+2*51))
		}
	})
}

// TestWorkersGrain: one worker per P, no more than work/grain, at least
// one.
func TestWorkersGrain(t *testing.T) {
	withProcs(3, func() {
		for _, c := range []struct{ work, grain, want int }{
			{0, 4, 1}, {3, 4, 1}, {8, 4, 2}, {11, 4, 2}, {12, 4, 3}, {400, 4, 3}, {5, 0, 3},
		} {
			if got := Workers(c.work, c.grain); got != c.want {
				t.Errorf("Workers(%d, %d) = %d at 3 Ps, want %d", c.work, c.grain, got, c.want)
			}
		}
	})
}
