package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	zero := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("seed 0 produced %d zeros in 100 draws", zero)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child's stream must differ from the parent's subsequent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent: %d/100 matches", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformish(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) empirical rate %v", p)
	}
}

func TestIntBetween(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		v := r.IntBetween(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntBetween(5,9) = %d", v)
		}
	}
	if v := r.IntBetween(4, 4); v != 4 {
		t.Fatalf("IntBetween(4,4) = %d", v)
	}
}

func TestIntBetweenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntBetween(2,1) did not panic")
		}
	}()
	New(1).IntBetween(2, 1)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestGeometric(t *testing.T) {
	r := New(23)
	if g := r.Geometric(1, 100); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	if g := r.Geometric(0, 42); g != 42 {
		t.Fatalf("Geometric(0, 42) = %d, want cap 42", g)
	}
	// Mean of geometric(p) failures-before-success is (1-p)/p = 1 for p=.5.
	sum := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		sum += r.Geometric(0.5, 1000)
	}
	if mean := float64(sum) / draws; math.Abs(mean-1.0) > 0.05 {
		t.Fatalf("Geometric(0.5) mean %v, want ~1", mean)
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{12, 18, 6}, {7, 13, 1}, {0, 5, 5}, {5, 0, 5}, {1, 1, 1},
		{48, 36, 12}, {100, 75, 25},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCoprimeProperty(t *testing.T) {
	r := New(29)
	f := func(n uint16) bool {
		nn := uint64(n)
		p := r.Coprime(nn)
		if nn <= 2 {
			return p == 1
		}
		return p >= 2 && p < nn && GCD(p, nn) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCoprimeExhaustive checks every n in [0, 4096]: the multiplier is
// coprime to n, and in [2, n) once n >= 3. Unlike the property test it
// never depends on which sizes testing/quick happens to draw.
func TestCoprimeExhaustive(t *testing.T) {
	r := New(41)
	for n := uint64(0); n <= 4096; n++ {
		p := r.Coprime(n)
		if GCD(p, n) != 1 {
			t.Fatalf("Coprime(%d) = %d shares a factor with n", n, p)
		}
		if n >= 3 && (p < 2 || p >= n) {
			t.Fatalf("Coprime(%d) = %d outside [2, %d)", n, p, n)
		}
	}
}

func TestCoprimePermutes(t *testing.T) {
	// (v*p) mod n must be a bijection on [0, n) when gcd(p, n) == 1.
	r := New(31)
	for _, n := range []uint64{4, 16, 100, 256, 510} {
		p := r.Coprime(n)
		seen := make([]bool, n)
		for v := uint64(0); v < n; v++ {
			t2 := (v * p) % n
			if seen[t2] {
				t.Fatalf("n=%d p=%d not a permutation", n, p)
			}
			seen[t2] = true
		}
	}
}

func TestUint64nRejectionBoundary(t *testing.T) {
	// Exercise values of n just below powers of two, where the Lemire
	// rejection threshold is largest.
	r := New(37)
	for _, n := range []uint64{1, 2, 3, (1 << 62) + 1, 1<<63 - 1} {
		for i := 0; i < 100; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(2023, "tune", "PTE-003", "AMD", "MP")
	b := DeriveSeed(2023, "tune", "PTE-003", "AMD", "MP")
	if a != b {
		t.Fatalf("DeriveSeed not deterministic: %x vs %x", a, b)
	}
	ra, rb := NewFromPath(2023, "x"), NewFromPath(2023, "x")
	for i := 0; i < 100; i++ {
		if ra.Uint64() != rb.Uint64() {
			t.Fatalf("NewFromPath streams diverge at draw %d", i)
		}
	}
}

func TestDeriveSeedSeparatesComponents(t *testing.T) {
	pairs := [][2][]string{
		{{"ab", "c"}, {"a", "bc"}},
		{{"abc"}, {"ab", "c"}},
		{{"a", "", "b"}, {"a", "b"}},
		{{"a"}, {"a", ""}},
	}
	for _, p := range pairs {
		if DeriveSeed(1, p[0]...) == DeriveSeed(1, p[1]...) {
			t.Errorf("DeriveSeed(%q) == DeriveSeed(%q)", p[0], p[1])
		}
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	// Nearby seeds and nearby paths must land far apart; check all
	// derived values are distinct across a small grid.
	seen := map[uint64]string{}
	for seed := uint64(0); seed < 8; seed++ {
		for i := 0; i < 64; i++ {
			key := "cell-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			v := DeriveSeed(seed, "campaign", key)
			if prev, dup := seen[v]; dup {
				t.Fatalf("collision: seed=%d key=%q equals %s", seed, key, prev)
			}
			seen[v] = key
		}
	}
}

// TestPermIntoMatchesPerm pins PermInto to Perm: identical draws from
// identical states, with the caller's buffer reused in place whenever
// its capacity suffices.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		a := New(uint64(1000 + n))
		b := New(uint64(1000 + n))
		want := a.Perm(n)
		buf := make([]int, 0, 64)
		got := b.PermInto(buf, n)
		if len(got) != n {
			t.Fatalf("n=%d: PermInto returned %d elements", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d] = %d, Perm[%d] = %d", n, i, got[i], i, want[i])
			}
		}
		if n > 0 && &got[0] != &buf[:1][0] {
			t.Errorf("n=%d: PermInto reallocated despite sufficient capacity", n)
		}
		// The generators must be in identical states afterwards: the two
		// paths consumed exactly the same draws.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: Perm and PermInto consumed different draws", n)
		}
	}
}

// TestPermIntoGrows checks the grow path: a too-small buffer is
// replaced, not written out of bounds, and the permutation is valid.
func TestPermIntoGrows(t *testing.T) {
	r := New(3)
	p := r.PermInto(make([]int, 0, 2), 10)
	if len(p) != 10 {
		t.Fatalf("got %d elements, want 10", len(p))
	}
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}
