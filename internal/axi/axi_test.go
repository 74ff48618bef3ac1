package axi

import "testing"

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
