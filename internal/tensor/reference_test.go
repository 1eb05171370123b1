package tensor

import (
	"fmt"
	"math"
	"testing"

	"summitscale/internal/parallel"
	"summitscale/internal/stats"
)

// referenceTranspose is the element-by-element transpose Transpose2DIn's
// tiles replaced.
func referenceTranspose(t *Tensor) []float64 {
	m, n := t.shape[0], t.shape[1]
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[j*m+i] = t.data[i*n+j]
		}
	}
	return out
}

// specialOperands returns a (k, m) A holding +0, -0 and NaN among its
// normal values and a (k, n) B holding ±Inf.
func specialOperands(seed uint64, m, k, n int) (a, b *Tensor) {
	rng := stats.NewRNG(seed)
	a = Randn(rng, 1, k, m)
	b = Randn(rng, 1, k, n)
	addSpecials(rng, a, b)
	return a, b
}

// addSpecials sets about a quarter of a's elements to +0 or -0 and its
// middle one to NaN, and b's first and last elements to +Inf and -Inf.
func addSpecials(rng *stats.RNG, a, b *Tensor) {
	for i := range a.data {
		switch rng.Intn(8) {
		case 0:
			a.data[i] = 0
		case 1:
			a.data[i] = math.Copysign(0, -1)
		}
	}
	a.data[len(a.data)/2] = math.NaN()
	b.data[0] = math.Inf(1)
	b.data[len(b.data)-1] = math.Inf(-1)
}

// TestMatMulTAMatchesTransposeMatMul: tᵀ·u read in place is bit-identical
// to materializing tᵀ and multiplying, on shapes below and above the
// fan-out threshold with tails in every dimension.
func TestMatMulTAMatchesTransposeMatMul(t *testing.T) {
	for _, d := range [][3]int{{1, 1, 1}, {3, 5, 7}, {7, 13, 9}, {33, 17, 70}, {64, 64, 256}, {256, 64, 256}, {64, 256, 2}} {
		m, k, n := d[0], d[1], d[2]
		a, b := specialOperands(uint64(m*k*n), m, k, n)
		want := a.Transpose2D().MatMul(b)
		got := a.MatMulTA(b)
		if got.shape[0] != m || got.shape[1] != n {
			t.Fatalf("%v: shape %v", d, got.shape)
		}
		sameBits(t, fmt.Sprintf("m,k,n=%v", d), got.data, want.data)
	}
}

// TestMatMulTADeterministicAcrossWorkers drives the strided rows through
// the gemmRowChunk decomposition the fan-out uses, at pool widths 1, 2, 4
// and 8, on a shape above the fan-out threshold whose m is not a multiple
// of the chunk or the tile.
func TestMatMulTADeterministicAcrossWorkers(t *testing.T) {
	const m, k, n = 133, 64, 150
	if m*k*n < matmulParallelThreshold {
		t.Fatal("shape no longer fans out")
	}
	a, b := specialOperands(71, m, k, n)
	want := a.Transpose2D().MatMul(b).data
	for _, w := range []int{1, 2, 4, 8} {
		pool := parallel.NewWorkerPool(w)
		dst := make([]float64, m*n)
		pool.RunRange(m, gemmRowChunk, func(lo, hi int) {
			matmulRowsSIMD(dst, a.data, b.data, lo, hi, k, n, 1, m)
		})
		pool.Close()
		sameBits(t, fmt.Sprintf("workers=%d", w), dst, want)
	}
}

// TestMatMulTAFanOutAllocs: like MatMul, a fanned-out MatMulTA into a
// warm arena allocates nothing; its pool jobs are recycled.
func TestMatMulTAFanOutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so recycled jobs are reallocated")
	}
	const m, k, n = 256, 64, 256
	ar := NewArena()
	rng := stats.NewRNG(73)
	a := Randn(rng, 1, k, m)
	b := Randn(rng, 1, k, n)
	iter := func() {
		ar.Reset()
		_ = a.MatMulTAIn(ar, b)
	}
	iter()
	if got := testing.AllocsPerRun(20, iter); got != 0 {
		t.Fatalf("fanned-out MatMulTA into a warm arena allocates %v times per call", got)
	}
}

// TestMatMulTBMatchesTransposeMatMul: t·uᵀ from packed strips is
// bit-identical to materializing uᵀ and multiplying, on every dispatch
// shape (both sides of the fan-out threshold, every m mod 4 and n mod 8,
// the traffic shapes), first with normal operands, then with ±0 and NaN
// in t and ±Inf in u.
func TestMatMulTBMatchesTransposeMatMul(t *testing.T) {
	rng := stats.NewRNG(79)
	for _, d := range dispatchShapes() {
		m, k, n := d[0], d[1], d[2]
		a := Randn(rng, 1, m, k)
		u := Randn(rng, 1, n, k)
		for _, special := range []bool{false, true} {
			if special {
				addSpecials(rng, a, u)
			}
			got := a.MatMulTB(u)
			if got.shape[0] != m || got.shape[1] != n {
				t.Fatalf("%v: shape %v", d, got.shape)
			}
			sameBits(t, fmt.Sprintf("m,k,n=%v special=%v", d, special), got.data, a.MatMul(u.Transpose2D()).data)
		}
	}
}

// TestMatMulTBDeterministicAcrossWorkers drives the strips through the
// one-strip claims gemmTB's fan-out makes, each claim packing its own
// panel, at pool widths 1, 2, 4 and 8, on a shape above the fan-out
// threshold whose m is not a multiple of the 4-row tile and whose n is
// not a multiple of the 8-column strip.
func TestMatMulTBDeterministicAcrossWorkers(t *testing.T) {
	if !gemmSIMD {
		t.Skip("no AVX2 micro-kernel on this host")
	}
	const m, k, n = 133, 140, 150
	if m*k*n < matmulParallelThreshold {
		t.Fatal("shape no longer fans out")
	}
	rng := stats.NewRNG(83)
	a := Randn(rng, 1, m, k)
	u := Randn(rng, 1, n, k)
	addSpecials(rng, a, u)
	want := a.MatMul(u.Transpose2D()).data
	for _, w := range []int{1, 2, 4, 8} {
		pool := parallel.NewWorkerPool(w)
		dst := make([]float64, m*n)
		pool.RunRange((n+7)/8, 1, func(lo, hi int) {
			matmulTBStrips(dst, a.data, u.data, make([]float64, 8*k), lo, hi, m, k, n)
		})
		pool.Close()
		sameBits(t, fmt.Sprintf("workers=%d", w), dst, want)
	}
}

// TestMatMulTBFanOutAllocs: a fanned-out MatMulTB into a warm arena
// allocates nothing. Its jobs and panels are recycled; without the AVX2
// kernel it transposes into the arena and multiplies through the
// recycled row job.
func TestMatMulTBFanOutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so recycled jobs are reallocated")
	}
	const m, k, n = 64, 256, 256
	ar := NewArena()
	rng := stats.NewRNG(89)
	a := Randn(rng, 1, m, k)
	u := Randn(rng, 1, n, k)
	iter := func() {
		ar.Reset()
		_ = a.MatMulTBIn(ar, u)
	}
	iter()
	if got := testing.AllocsPerRun(20, iter); got != 0 {
		t.Fatalf("fanned-out MatMulTB into a warm arena allocates %v times per call", got)
	}
}

// TestTransposeMatchesNaive: the tiled transpose equals the element loop
// on shapes with and without tile tails, into a poisoned arena, so every
// element of the result must be written.
func TestTransposeMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(77)
	ar := NewArena()
	for _, d := range [][2]int{{1, 1}, {1, 40}, {40, 1}, {15, 17}, {16, 16}, {33, 70}, {64, 256}, {256, 256}} {
		x := Randn(rng, 1, d[0], d[1])
		ar.Reset()
		_ = ar.New(d[0] * d[1])
		ar.Reset()
		PoisonArena(ar, math.NaN())
		got := x.Transpose2DIn(ar)
		if got.shape[0] != d[1] || got.shape[1] != d[0] {
			t.Fatalf("%v: shape %v", d, got.shape)
		}
		sameBits(t, fmt.Sprintf("%v", d), got.data, referenceTranspose(x))
	}
}
