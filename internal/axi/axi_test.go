package axi

import "testing"

func TestForEachRunCapped(t *testing.T) {
	collect := func(idx []int, max int) [][2]int {
		var runs [][2]int
		if err := ForEachRunCapped(idx, max, func(i0, n int) error {
			runs = append(runs, [2]int{i0, n})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return runs
	}
	cases := []struct {
		idx  []int
		max  int
		want [][2]int
	}{
		{nil, 4, nil},
		{[]int{7}, 4, [][2]int{{7, 1}}},
		// One long run splits into max-sized windows plus the remainder.
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 4, [][2]int{{0, 4}, {4, 4}, {8, 2}}},
		// Gaps still delimit runs; the cap applies within each run.
		{[]int{1, 2, 3, 10, 11, 12, 13, 14, 20}, 3, [][2]int{{1, 3}, {10, 3}, {13, 2}, {20, 1}}},
		// max < 1 means uncapped: maximal contiguous runs.
		{[]int{5, 6, 7, 9}, 0, [][2]int{{5, 3}, {9, 1}}},
		// A cap of one degenerates to per-index calls.
		{[]int{3, 4, 5}, 1, [][2]int{{3, 1}, {4, 1}, {5, 1}}},
	}
	for i, c := range cases {
		got := collect(c.idx, c.max)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: runs %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: runs %v, want %v", i, got, c.want)
			}
		}
	}
}

// TestBurstsFor pins AXI legalisation as the cycle model charges it: one
// request per MaxBurstBytes (256 beats of 64 bytes), rounded up.
func TestBurstsFor(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {-1, 0}, {1, 1}, {MaxBurstBytes, 1}, {MaxBurstBytes + 1, 2},
		{16 * (512 + 16), 1}, {16 * (4096 + 16), 5},
	} {
		if got := BurstsFor(c.n); got != c.want {
			t.Errorf("BurstsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
