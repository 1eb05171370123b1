package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	// The split stream must not merely replay the parent.
	equal := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == s.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split stream tracks parent: %d collisions", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var s float64
	const n = 100000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	if m := s / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", m)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	m := Mean(xs)
	if math.Abs(m) > 0.02 {
		t.Errorf("normal mean = %v", m)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	if sd := math.Sqrt(ss / n); math.Abs(sd-1) > 0.02 {
		t.Errorf("normal sd = %v", sd)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(17)
	const n = 200000
	var s float64
	for i := 0; i < n; i++ {
		s += r.ExpFloat64()
	}
	if m := s / n; math.Abs(m-1) > 0.02 {
		t.Fatalf("exponential mean = %v", m)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := NewRNG(21)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	frac := float64(counts[2]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("category 2 frequency = %v, want ~0.75", frac)
	}
}

func TestCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-sum weights did not panic")
		}
	}()
	NewRNG(1).Categorical([]float64{0, 0})
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{10}, 50); got != 10 {
		t.Errorf("single-element percentile = %v", got)
	}
}

// TestPercentileEdgeInputs pins the contract at the boundaries: a
// single-element slice returns its element at every p, and an empty
// slice panics rather than silently returning a zero a caller might
// mistake for a real quantile.
func TestPercentileEdgeInputs(t *testing.T) {
	for _, p := range []float64{0, 37.5, 100} {
		if got := Percentile([]float64{-4.25}, p); got != -4.25 {
			t.Errorf("single-element P%v = %v, want -4.25", p, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(nil, 50) did not panic")
		}
	}()
	Percentile(nil, 50)
}

func TestQuickPercentileWithinBounds(t *testing.T) {
	r := NewRNG(77)
	if err := quick.Check(func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		n := rr.Intn(40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.NormFloat64()
		}
		p := rr.Float64() * 100
		v := Percentile(xs, p)
		return v >= slices.Min(xs)-1e-12 && v <= slices.Max(xs)+1e-12
	}, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}
