package parallel

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// withProcs runs f at GOMAXPROCS=procs and restores the old setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestParallelForRanges: at every width, For calls body on
// min(P, n) contiguous ranges that cover [0, n) exactly once.
func TestParallelForRanges(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(procs, func() {
			for n := 0; n <= 20; n++ {
				var mu sync.Mutex
				var got [][2]int
				For(n, func(lo, hi int) {
					mu.Lock()
					got = append(got, [2]int{lo, hi})
					mu.Unlock()
				})
				slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
				if want := max(1, min(procs, n)); len(got) != want {
					t.Errorf("GOMAXPROCS=%d n=%d: %d ranges %v, want %d", procs, n, len(got), got, want)
				}
				next := 0
				for _, r := range got {
					if r[0] != next || r[1] < r[0] {
						t.Errorf("GOMAXPROCS=%d n=%d: ranges %v do not tile [0, %d)", procs, n, got, n)
						break
					}
					next = r[1]
				}
				if next != n {
					t.Errorf("GOMAXPROCS=%d n=%d: ranges %v end at %d", procs, n, got, next)
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

// rangeRecorder is a Body that records the range each worker ran.
type rangeRecorder struct {
	mu  sync.Mutex
	got map[int][2]int
}

func (r *rangeRecorder) Run(w, lo, hi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.got[w]; dup {
		r.got[w] = [2]int{-1, -1}
		return
	}
	r.got[w] = [2]int{lo, hi}
}

// TestGroupRunWorkers: a reused Group gives worker w exactly the range
// [w*n/p, (w+1)*n/p), once, for p capped at n, at any number of Ps.
func TestGroupRunWorkers(t *testing.T) {
	var g Group
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			for p := 0; p <= 5; p++ {
				for _, n := range []int{0, 1, 3, 4, 7, 64} {
					r := &rangeRecorder{got: map[int][2]int{}}
					g.Run(p, n, r)
					q := max(1, min(p, n))
					if len(r.got) != q {
						t.Errorf("GOMAXPROCS=%d p=%d n=%d: workers %v, want %d", procs, p, n, r.got, q)
						continue
					}
					for w := 0; w < q; w++ {
						if want := [2]int{w * n / q, (w + 1) * n / q}; r.got[w] != want {
							t.Errorf("GOMAXPROCS=%d p=%d n=%d: worker %d ran %v, want %v", procs, p, n, w, r.got[w], want)
						}
					}
				}
			}
		})
	}
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
