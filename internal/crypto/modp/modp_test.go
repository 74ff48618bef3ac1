package modp

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

func TestGroup14Parameters(t *testing.T) {
	if Group14.P.BitLen() != 2048 {
		t.Errorf("Group14 P is %d bits, want 2048", Group14.P.BitLen())
	}
	// Q = (P-1)/2 exactly.
	q2 := new(big.Int).Lsh(Group14.Q, 1)
	q2.Add(q2, big.NewInt(1))
	if q2.Cmp(Group14.P) != 0 {
		t.Error("Q != (P-1)/2")
	}
	if Group14.G.Cmp(big.NewInt(4)) != 0 {
		t.Error("generator is not 4 (the order-Q quadratic residue 2^2)")
	}
}

func TestGroup14Primality(t *testing.T) {
	if testing.Short() {
		t.Skip("primality check on 2048-bit prime in -short mode")
	}
	if !Group14.P.ProbablyPrime(16) {
		t.Error("Group14 P not prime")
	}
	if !Group14.Q.ProbablyPrime(16) {
		t.Error("Group14 Q not prime (P not a safe prime)")
	}
}

func TestTestGroupIsSafePrime(t *testing.T) {
	if !TestGroup.P.ProbablyPrime(20) || !TestGroup.Q.ProbablyPrime(20) {
		t.Fatal("TestGroup is not a safe-prime group")
	}
	if TestGroup.P.BitLen() < 500 {
		t.Fatalf("TestGroup only %d bits", TestGroup.P.BitLen())
	}
}

func TestRandScalarRange(t *testing.T) {
	for i := 0; i < 50; i++ {
		x, err := TestGroup.RandScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() <= 0 || x.Cmp(TestGroup.Q) >= 0 {
			t.Fatalf("scalar %v out of (0, Q)", x)
		}
	}
}

func TestScalarFromBytesDeterministicAndNonzero(t *testing.T) {
	a := TestGroup.ScalarFromBytes([]byte("seed"))
	b := TestGroup.ScalarFromBytes([]byte("seed"))
	if a.Cmp(b) != 0 {
		t.Fatal("not deterministic")
	}
	zero := TestGroup.ScalarFromBytes(nil)
	if zero.Sign() <= 0 {
		t.Fatal("scalar from empty seed is not positive")
	}
}

func TestExpAgreement(t *testing.T) {
	x, _ := TestGroup.RandScalar(nil)
	y, _ := TestGroup.RandScalar(nil)
	gx := TestGroup.Exp(x)
	gy := TestGroup.Exp(y)
	gxy := TestGroup.ExpBase(gx, y)
	gyx := TestGroup.ExpBase(gy, x)
	if gxy.Cmp(gyx) != 0 {
		t.Fatal("DH agreement failed")
	}
}

func TestValidElement(t *testing.T) {
	if TestGroup.ValidElement(nil) {
		t.Error("nil accepted")
	}
	if TestGroup.ValidElement(big.NewInt(0)) || TestGroup.ValidElement(big.NewInt(1)) {
		t.Error("trivial element accepted")
	}
	pm1 := new(big.Int).Sub(TestGroup.P, big.NewInt(1))
	if TestGroup.ValidElement(pm1) {
		t.Error("P-1 accepted")
	}
	if !TestGroup.ValidElement(big.NewInt(4)) {
		t.Error("4 rejected")
	}
	// P-1 is a group constant: checking an element must not rebuild it.
	if n := testing.AllocsPerRun(100, func() { TestGroup.ValidElement(pm1) }); n != 0 {
		t.Errorf("ValidElement allocates %v times per call, want 0", n)
	}
}

// TestExpMatchesBigExp checks the comb against math/big on random
// exponents and at the edges of Exp's reduction mod Q: zero, the Q and P
// neighbours, an exponent far longer than P, and negatives, which
// math/big answers through the inverse of G.
func TestExpMatchesBigExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	for _, g := range []*Group{TestGroup, Group14} {
		xs := []*big.Int{
			big.NewInt(0), big.NewInt(1),
			add(g.Q, -1), g.Q, add(g.Q, 1),
			add(g.P, -1), g.P,
			new(big.Int).Lsh(one, uint(g.P.BitLen()+100)),
			big.NewInt(-1),
			new(big.Int).Neg(add(g.Q, 3)),
		}
		for i := 0; i < 500; i++ {
			xs = append(xs, new(big.Int).Rand(rng, g.Q))
		}
		for _, x := range xs {
			want := new(big.Int).Exp(g.G, x, g.P)
			if got := g.Exp(x); got.Cmp(want) != 0 {
				t.Fatalf("%s: Exp(%v) = %v, want %v", g.Name, x, got, want)
			}
		}
	}
}

// TestGeneratorOrderIsQ pins the fact Exp's reduction mod Q relies on: G
// generates the order-Q subgroup, so G^x depends only on x mod Q.
func TestGeneratorOrderIsQ(t *testing.T) {
	for _, g := range []*Group{TestGroup, Group14} {
		if g.G.Cmp(one) == 0 {
			t.Fatalf("%s: G = 1", g.Name)
		}
		if gq := new(big.Int).Exp(g.G, g.Q, g.P); gq.Cmp(one) != 0 {
			t.Fatalf("%s: G^Q = %v mod P, want 1", g.Name, gq)
		}
	}
}

// TestExpResultsAreNotAliased mutates every value Exp returns and checks
// later results are unchanged: no caller can reach a table entry. The
// exponents include every single-tooth power, whose result is one entry.
func TestExpResultsAreNotAliased(t *testing.T) {
	g := mustGroup("modp512-alias", test512P)
	g.Exp(one) // builds the table, so g.comb.b is set
	var xs []*big.Int
	all := new(big.Int)
	for pos := 0; pos < combTeeth*combSubTables; pos++ {
		x := new(big.Int).Lsh(one, uint(pos*g.comb.b))
		xs = append(xs, x)
		all.Or(all, x)
	}
	xs = append(xs, all, big.NewInt(1), big.NewInt(0))
	for round := 0; round < 2; round++ {
		for _, x := range xs {
			got := g.Exp(x)
			if want := new(big.Int).Exp(g.G, x, g.P); got.Cmp(want) != 0 {
				t.Fatalf("round %d: Exp(%v) = %v, want %v", round, x, got, want)
			}
			got.SetInt64(7)
		}
	}
}

// TestExpConcurrentFirstUse races eight goroutines into the first Exp on a
// fresh group, so the lazy table build runs under contention (-race).
func TestExpConcurrentFirstUse(t *testing.T) {
	g := mustGroup("modp512-race", test512P)
	x := new(big.Int).Sub(g.Q, big.NewInt(12345))
	want := new(big.Int).Exp(g.G, x, g.P)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.Exp(x); got.Cmp(want) != 0 {
				errs <- got.String()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("concurrent first Exp = %s, want %v", got, want)
	}
}

// BenchmarkGroupExp prices a fixed-base power (Exp, through the comb)
// against a variable-base one (ExpBase, math/big) on both groups. The
// comb table is built before the timer starts.
func BenchmarkGroupExp(b *testing.B) {
	for _, g := range []*Group{TestGroup, Group14} {
		rng := rand.New(rand.NewSource(1))
		x := new(big.Int).Rand(rng, g.Q)
		base := g.Exp(new(big.Int).Rand(rng, g.Q))
		b.Run("Exp/"+g.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = g.Exp(x)
			}
		})
		b.Run("ExpBase/"+g.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = g.ExpBase(base, x)
			}
		})
	}
}

var benchSink *big.Int
