package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed produced a degenerate all-zero stream")
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(9)
	b := New(9)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Reseed did not reproduce New's sequence")
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := s.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d has %d draws, want about %d", i, c, want)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(0).Uint64n(0)
}

func TestIntnNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-1) did not panic")
		}
	}()
	New(0).Intn(-1)
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(17)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit fraction %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
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

func TestShuffleKeepsElements(t *testing.T) {
	s := New(29)
	xs := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	sum := uint32(0)
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(xs)
	got := uint32(0)
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("Shuffle changed multiset: %v", xs)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	child := parent.Split()
	// The child should not replay the parent's stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("child echoed parent on %d/64 draws", same)
	}
}

func TestCloneContinuesSequence(t *testing.T) {
	s := New(41)
	s.Uint64() // clone mid-sequence, not at the seed
	c := s.Clone()
	want := make([]uint64, 64)
	for i := range want {
		want[i] = s.Uint64()
	}
	for i, w := range want {
		if got := c.Uint64(); got != w {
			t.Fatalf("draw %d: clone %d, source %d", i, got, w)
		}
	}
}

func TestZipfWithSourceSamplesAsOriginal(t *testing.T) {
	z := NewZipf(New(43), 1<<16, 0.99)
	z.Next()
	c := z.WithSource(z.Source().Clone())
	if c.Source() == z.Source() {
		t.Fatal("WithSource kept the original source")
	}
	for i := 0; i < 1000; i++ {
		if a, b := z.Next(), c.Next(); a != b {
			t.Fatalf("sample %d: copy %d, original %d", i, b, a)
		}
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(New(37), 1000, 0.99)
	for i := 0; i < 100000; i++ {
		if v := z.Next(); v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(New(41), 10000, 0.99)
	const draws = 200000
	top := 0
	for i := 0; i < draws; i++ {
		if z.Next() < 100 {
			top++
		}
	}
	// With theta=0.99 the top 1% of ranks should absorb well over a third
	// of the draws; uniform would give 1%.
	if frac := float64(top) / draws; frac < 0.35 {
		t.Errorf("top-1%% mass = %v, want skewed (>0.35)", frac)
	}
}

func TestZipfMostPopularIsRankZero(t *testing.T) {
	z := NewZipf(New(43), 1000, 0.9)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	best, bestCount := uint64(0), -1
	for v, c := range counts {
		if c > bestCount {
			best, bestCount = v, c
		}
	}
	if best != 0 {
		t.Errorf("most popular rank = %d, want 0", best)
	}
}

func TestZipfInvalidArgsPanic(t *testing.T) {
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{0, 0.9}, {10, 0}, {10, 1}, {10, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.theta)
				}
			}()
			NewZipf(New(0), tc.n, tc.theta)
		}()
	}
}

func TestZipfLargeN(t *testing.T) {
	// Exercises the Euler-Maclaurin tail in zeta().
	z := NewZipf(New(47), 1<<33, 0.99)
	for i := 0; i < 1000; i++ {
		if v := z.Next(); v >= 1<<33 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}
