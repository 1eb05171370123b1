package tensor

import (
	"fmt"
	"math"
	"testing"

	"summitscale/internal/stats"
)

// The SIMD path's contract: MatMul equals the row-stream kernel bit for
// bit, signed zeros included. These tests run through MatMul, so on hosts
// without the kernel they pin the Go dispatch instead.

// sameBits fails t unless got and want hold the same float64 bit
// patterns, so -0 differs from +0 and every NaN must line up.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// rowStream is the reference: the sequential row-stream kernel.
func rowStream(a, b *Tensor) []float64 {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	want := make([]float64, m*n)
	matmulRows(want, a.Data(), b.Data(), 0, m, k, n)
	return want
}

// gemmTrafficShapes are the products the benchmark workloads run (m, k, n).
var gemmTrafficShapes = [][3]int{
	{64, 256, 256}, // train-wide residual-block forward and dX
	{256, 64, 256}, // train-wide residual-block dW
	{512, 9, 8},    // train-cnn conv1 forward
	{128, 72, 16},  // train-cnn conv2 forward
	{16, 128, 72},  // train-cnn conv2 dK
	{8, 512, 9},    // train-cnn conv1 dK: one SIMD strip and one scalar column
}

// dispatchShapes are products on both sides of the parallel threshold and
// every m mod 4 and n mod 8 (n < 8 included) at k = 1, 2 and 257, followed
// by the traffic shapes.
func dispatchShapes() [][3]int {
	shapes := [][3]int{
		{8, 8, 8},       // below parallel threshold
		{80, 80, 80},    // just above it
		{160, 160, 160}, // well above it
	}
	for _, k := range []int{1, 2, 257} {
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 17; n++ {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return append(shapes, gemmTrafficShapes...)
}

// TestMatMulDispatchIdentical pins that MatMul's dispatch never changes
// bytes: every dispatch shape equals the sequential row-stream kernel
// exactly.
func TestMatMulDispatchIdentical(t *testing.T) {
	rng := stats.NewRNG(19)
	for _, dims := range dispatchShapes() {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		sameBits(t, fmt.Sprintf("dims %v", dims), a.MatMul(b).Data(), rowStream(a, b))
	}
}

// TestMatMulMatchesRowStreamSignedZeros uses operands that are mostly ±0
// in both A and B, so most A elements are skipped and many products are
// signed zeros. MatMul accumulates from +0, which adding a signed zero
// never turns into -0; TestGemmSIMDRowsKernel covers a -0 accumulator.
func TestMatMulMatchesRowStreamSignedZeros(t *testing.T) {
	rng := stats.NewRNG(43)
	for _, dims := range append([][3]int{{9, 33, 17}, {70, 90, 130}}, gemmTrafficShapes...) {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		for _, x := range []*Tensor{a, b} {
			d := x.Data()
			for i := range d {
				switch rng.Intn(4) {
				case 0:
					d[i] = rng.NormFloat64()
				case 1:
					d[i] = math.Copysign(0, -1)
				}
			}
		}
		sameBits(t, fmt.Sprintf("signed zeros %v", dims), a.MatMul(b).Data(), rowStream(a, b))
	}
}

// TestMatMulSkipKeepsInfOut puts ±Inf in B only where A's facing element
// is ±0: the skip keeps every 0·Inf out of both kernels, so the product
// is finite. A NaN in A is not skipped and reaches its whole output row.
func TestMatMulSkipKeepsInfOut(t *testing.T) {
	rng := stats.NewRNG(47)
	const m, k, n = 13, 40, 27
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	for kk := 0; kk < k; kk += 3 {
		for i := 0; i < m; i++ {
			a.Data()[i*k+kk] = math.Copysign(0, float64(i%2)-0.5)
		}
		for j := 0; j < n; j++ {
			b.Data()[kk*n+j] = math.Inf(1 - 2*(j%2))
		}
	}
	got := a.MatMul(b).Data()
	sameBits(t, "inf facing zeros", got, rowStream(a, b))
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("element %d is %v: a zero A element met an infinite B element", i, v)
		}
	}

	a.Data()[5*k+1] = math.NaN()
	got = a.MatMul(b).Data()
	sameBits(t, "NaN in A", got, rowStream(a, b))
	for j := 0; j < n; j++ {
		if !math.IsNaN(got[5*n+j]) {
			t.Fatalf("row 5 column %d is %v: a NaN in A was skipped", j, got[5*n+j])
		}
	}
}

// TestGemmSIMDRowsKernel calls the SIMD rows function directly, over row
// ranges that start off a 4-row boundary, accumulating into a destination
// of -0s. MatMul's destination is always +0, where adding a ±0 product
// changes nothing; from -0, adding +0 gives +0, so only a kernel that
// skips exactly the ±0 elements of A keeps the row-stream's bits.
func TestGemmSIMDRowsKernel(t *testing.T) {
	if !gemmSIMD {
		t.Skip("no AVX2 micro-kernel on this host")
	}
	rng := stats.NewRNG(53)
	negZero := math.Copysign(0, -1)
	for _, dims := range [][3]int{{11, 1, 8}, {11, 5, 23}, {30, 64, 40}, {9, 257, 16}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		for i := range a.Data() {
			switch rng.Intn(3) {
			case 0:
				a.Data()[i] = 0
			case 1:
				a.Data()[i] = negZero
			}
		}
		for _, lo := range []int{0, 1, 3} {
			want := make([]float64, m*n)
			got := make([]float64, m*n)
			for i := range want {
				want[i], got[i] = negZero, negZero
			}
			matmulRows(want, a.Data(), b.Data(), lo, m, k, n)
			matmulRowsSIMD(got, a.Data(), b.Data(), lo, m, k, n, k, 1)
			sameBits(t, fmt.Sprintf("dims %v from row %d", dims, lo), got, want)
		}
	}
}

// TestGemmSIMDRejectsShortSlices: the Go wrapper indexes each tile's last
// element before calling the assembly, so a slice too short for the shape
// panics instead of being overrun.
func TestGemmSIMDRejectsShortSlices(t *testing.T) {
	if !gemmSIMD {
		t.Skip("no AVX2 micro-kernel on this host")
	}
	const m, k, n = 4, 3, 8
	for name, lens := range map[string][3]int{
		"dst": {m*n - 1, m * k, k * n},
		"a":   {m * n, m*k - 1, k * n},
		"b":   {m * n, m * k, k*n - 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s did not panic", name)
				}
			}()
			matmulRowsSIMD(make([]float64, lens[0]), make([]float64, lens[1]), make([]float64, lens[2]), 0, m, k, n, k, 1)
		}()
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMatMulFanOutAllocs pins that a product above the fan-out threshold
// allocates nothing once its arena is warm: the SIMD fan-out hands the
// pool a recycled job, not a fresh closure.
func TestMatMulFanOutAllocs(t *testing.T) {
	if !gemmSIMD {
		t.Skip("no AVX2 micro-kernel on this host")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so recycled jobs are reallocated")
	}
	const m, k, n = 64, 256, 256
	if m*k*n < matmulParallelThreshold {
		t.Fatal("shape no longer fans out")
	}
	ar := NewArena()
	rng := stats.NewRNG(59)
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	iter := func() {
		ar.Reset()
		x := NewIn(ar, m, k)
		copy(x.Data(), a.Data())
		_ = x.MatMul(b)
	}
	iter()
	if got := testing.AllocsPerRun(20, iter); got != 0 {
		t.Fatalf("fanned-out MatMul into a warm arena allocates %v times per call", got)
	}
}

// BenchmarkGemmSIMD256 is the sequential SIMD rows at 256³, the
// single-thread counterpart of BenchmarkGemmRowStream256 (summit-bench
// floors their ratio at any core count).
func BenchmarkGemmSIMD256(b *testing.B) {
	if !gemmSIMD {
		b.Skip("no AVX2 micro-kernel on this host")
	}
	benchGemm(b, func(dst, a, bb []float64, m, k, n int) {
		matmulRowsSIMD(dst, a, bb, 0, m, k, n, k, 1)
	}, 256)
}
