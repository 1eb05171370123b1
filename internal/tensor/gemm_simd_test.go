package tensor

import (
	"fmt"
	"math"
	"testing"

	"summitscale/internal/stats"
)

// The SIMD path's contract: MatMul equals the row-stream kernel bit for
// bit, signed zeros included, with the 16-wide tile switched off and on.
// These tests run through MatMul, so on hosts without the tiles they pin
// the Go dispatch instead.

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
// every m mod 4 and n mod 16 (n < 8 included) at k = 1, 2 and 257, so
// 16-wide tiles, one 8-wide tile and the register tails all run, followed
// by the traffic shapes.
func dispatchShapes() [][3]int {
	shapes := [][3]int{
		{8, 8, 8},       // below parallel threshold
		{80, 80, 80},    // just above it
		{160, 160, 160}, // well above it
	}
	for _, k := range []int{1, 2, 257} {
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 40; n++ {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return append(shapes, gemmTrafficShapes...)
}

// tileModes are the two settings of the 16-wide tile: off, so the
// 8-wide tile covers n &^ 7 columns, and on.
var tileModes = []struct {
	name string
	on   bool
}{{"tile8", false}, {"tile16", true}}

// forEachTile runs f as one subtest per tile mode; "tile16" skips on
// hosts without AVX-512.
func forEachTile(t *testing.T, f func(t *testing.T)) {
	for _, tm := range tileModes {
		t.Run(tm.name, func(t *testing.T) {
			defer setTile16(t, tm.on)()
			f(t)
		})
	}
}

// TestMatMulDispatchIdentical pins that MatMul's dispatch never changes
// bytes: with the 16-wide tile off and on, every dispatch shape equals
// the sequential row-stream kernel exactly, first with normal operands,
// then with ±0 and NaN in A and ±Inf in B.
func TestMatMulDispatchIdentical(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
		rng := stats.NewRNG(19)
		for _, dims := range dispatchShapes() {
			m, k, n := dims[0], dims[1], dims[2]
			a := Randn(rng, 1, m, k)
			b := Randn(rng, 1, k, n)
			sameBits(t, fmt.Sprintf("dims %v", dims), a.MatMul(b).Data(), rowStream(a, b))
			addSpecials(rng, a, b)
			sameBits(t, fmt.Sprintf("dims %v special", dims), a.MatMul(b).Data(), rowStream(a, b))
		}
	})
}

// TestMatMulMatchesRowStreamSignedZeros uses operands that are mostly ±0
// in both A and B, so most A elements are skipped and many products are
// signed zeros. Every kernel sums from +0, which adding a signed zero
// never turns into -0.
func TestMatMulMatchesRowStreamSignedZeros(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
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
	})
}

// TestMatMulSkipKeepsInfOut puts ±Inf in B only where A's facing element
// is ±0: the skip keeps every 0·Inf out of every kernel, so the product
// is finite. A NaN in A is not skipped and reaches its whole output row.
// Every sum starts at +0, so this is where a kernel that multiplied a
// zero A element would show.
func TestMatMulSkipKeepsInfOut(t *testing.T) {
	forEachTile(t, func(t *testing.T) {
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
	})
}

// TestGemmSIMDRowsKernel calls the SIMD rows function directly, over row
// ranges that start off a 4-row boundary, into a destination filled with
// NaN and -0. No kernel reads its destination, so the rows it owns must
// equal the row-stream's from a zeroed destination, with ±0 in about two
// thirds of A, and the rows before lo must keep the fill.
func TestGemmSIMDRowsKernel(t *testing.T) {
	if !gemmSIMD {
		t.Skip("no AVX2 tiles on this host")
	}
	forEachTile(t, func(t *testing.T) {
		rng := stats.NewRNG(53)
		negZero := math.Copysign(0, -1)
		for _, dims := range [][3]int{{11, 1, 8}, {11, 5, 23}, {13, 7, 26}, {30, 64, 40}, {9, 257, 16}} {
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
				for i := range got {
					got[i] = negZero
					if i%3 == 0 {
						got[i] = math.NaN()
					}
				}
				fill := append([]float64(nil), got[:lo*n]...)
				matmulRows(want, a.Data(), b.Data(), lo, m, k, n)
				matmulRowsSIMD(got, a.Data(), b.Data(), lo, m, k, n, k, 1)
				name := fmt.Sprintf("dims %v from row %d", dims, lo)
				sameBits(t, name, got[lo*n:], want[lo*n:])
				sameBits(t, name+" rows before lo", got[:lo*n], fill)
			}
		}
	})
}

// TestGemmSIMDRejectsShortSlices: the Go wrapper indexes each tile's last
// element before calling the assembly, so a slice too short for the shape
// panics instead of being overrun. At n = 8 the 8-wide tile runs; at
// n = 16 two of them, or one 16-wide tile in the "tile16" subtest.
func TestGemmSIMDRejectsShortSlices(t *testing.T) {
	if !gemmSIMD {
		t.Skip("no AVX2 tiles on this host")
	}
	forEachTile(t, func(t *testing.T) {
		const m, k = 4, 3
		for _, n := range []int{8, 16} {
			for name, lens := range map[string][3]int{
				"dst": {m*n - 1, m * k, k * n},
				"a":   {m * n, m*k - 1, k * n},
				"b":   {m * n, m * k, k*n - 1},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("n = %d: short %s did not panic", n, name)
						}
					}()
					matmulRowsSIMD(make([]float64, lens[0]), make([]float64, lens[1]), make([]float64, lens[2]), 0, m, k, n, k, 1)
				}()
			}
		}
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMatMulFanOutAllocs pins that a product above the fan-out threshold
// allocates nothing once its arena is warm, with either tile and with
// the Go fallback: every fan-out hands the pool a recycled job, not a
// fresh closure.
func TestMatMulFanOutAllocs(t *testing.T) {
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
	check := func(t *testing.T) {
		iter()
		if got := testing.AllocsPerRun(20, iter); got != 0 {
			t.Errorf("fanned-out MatMul into a warm arena allocates %v times per call", got)
		}
	}
	forEachTile(t, check)
	t.Run("go", func(t *testing.T) { goFallback(func() { check(t) }) })
}

// TestGemmPoisonedArenaMatchesHeap pins the store-only contract: no GEMM
// reads its output, so MatMul, MatMulTAIn, MatMulTB and Conv2D computed
// into an arena filled with NaN give the heap result bit for bit. The
// shapes run 16-wide tiles, the 8-wide tile, the register tails, the
// trailing rows and narrow last MatMulTB strips, below and above the
// fan-out threshold, with each tile and with the Go fallback.
func TestGemmPoisonedArenaMatchesHeap(t *testing.T) {
	rng := stats.NewRNG(103)
	in := func(ar *Arena, x *Tensor) *Tensor {
		y := NewRawIn(ar, x.shape...)
		copy(y.data, x.data)
		return y
	}
	type product struct {
		name string
		f    func(ar *Arena) *Tensor
	}
	var products []product
	for _, d := range [][3]int{{5, 9, 6}, {7, 33, 29}, {13, 5, 42}, {66, 96, 61}} {
		m, k, n := d[0], d[1], d[2]
		a, b := Randn(rng, 1, m, k), Randn(rng, 1, k, n)
		addSpecials(rng, a, b)
		at, u := a.Transpose2D(), b.Transpose2D()
		products = append(products,
			product{fmt.Sprintf("MatMul %v", d), func(ar *Arena) *Tensor { return in(ar, a).MatMul(b) }},
			product{fmt.Sprintf("MatMulTAIn %v", d), func(ar *Arena) *Tensor { return at.MatMulTAIn(ar, b) }},
			product{fmt.Sprintf("MatMulTB %v", d), func(ar *Arena) *Tensor { return a.MatMulTBIn(ar, u) }},
		)
	}
	// The product is (2·5·5, 26) with k = 27: 12 row groups and 2
	// trailing rows over 16 + 8 + 2 columns.
	x := Randn(rng, 1, 2, 3, 7, 7)
	kernel := Randn(rng, 1, 26, 3, 3, 3)
	bias := Randn(rng, 1, 26)
	products = append(products, product{"Conv2D", func(ar *Arena) *Tensor {
		out, _ := Conv2D(in(ar, x), kernel, bias, Conv2DOpts{Stride: 1})
		return out
	}})
	check := func(t *testing.T) {
		for _, p := range products {
			want := p.f(nil).data
			ar := NewArena()
			p.f(ar)
			ar.Reset()
			PoisonArena(ar, math.NaN())
			sameBits(t, p.name, p.f(ar).data, want)
		}
	}
	forEachTile(t, check)
	t.Run("go", func(t *testing.T) { goFallback(func() { check(t) }) })
}

// TestGemmZeroKWritesPositiveZero: a product over k = 0 writes +0 to
// every element of a destination filled with NaN, through gemm and, with
// the tiles, MatMulTB's strips. No tensor has a zero dimension, so the
// kernels are called directly.
func TestGemmZeroKWritesPositiveZero(t *testing.T) {
	const m, n = 9, 26
	check := func(t *testing.T) {
		kernels := map[string]func(dst []float64){
			"gemm":            func(dst []float64) { gemm(dst, nil, nil, m, 0, n, 0, 1) },
			"gemm transposed": func(dst []float64) { gemm(dst, nil, nil, m, 0, n, 1, m) },
		}
		if gemmSIMD {
			kernels["gemmTB"] = func(dst []float64) { gemmTB(dst, nil, nil, m, 0, n) }
		}
		for name, kernel := range kernels {
			dst := make([]float64, m*n)
			for i := range dst {
				dst[i] = math.NaN()
			}
			kernel(dst)
			for i, v := range dst {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: element %d is %v, want +0", name, i, v)
				}
			}
		}
	}
	forEachTile(t, check)
	t.Run("go", func(t *testing.T) { goFallback(func() { check(t) }) })
}

// BenchmarkGemmTB is train-wide's input-gradient product dY·Wᵀ at
// 64×256×256 into a warm arena: transpose materializes Wᵀ serially and
// multiplies, as the backward pass did before MatMulTB; strips is
// MatMulTB.
func BenchmarkGemmTB(b *testing.B) {
	const m, k, n = 64, 256, 256
	rng := stats.NewRNG(97)
	dy := Randn(rng, 1, m, k)
	w := Randn(rng, 1, n, k)
	ar := NewArena()
	for _, bc := range []struct {
		name string
		f    func()
	}{
		{"transpose", func() { matMulInto(NewRawIn(ar, m, n), dy, w.Transpose2DIn(ar)) }},
		{"strips", func() { _ = dy.MatMulTBIn(ar, w) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				bc.f()
			}
		})
	}
}

// BenchmarkGemmSIMD256 is the sequential SIMD rows at 256³, the
// single-thread counterpart of BenchmarkGemmRowStream256 (summit-bench
// floors their ratio at any core count).
func BenchmarkGemmSIMD256(b *testing.B) {
	if !gemmSIMD {
		b.Skip("no AVX2 tiles on this host")
	}
	benchGemm(b, func(dst, a, bb []float64, m, k, n int) {
		matmulRowsSIMD(dst, a, bb, 0, m, k, n, k, 1)
	}, 256)
}

// BenchmarkGemmTrainWide runs the three products of one train-wide
// layer's step into a warm arena: the forward MatMul (64×256·256×256),
// the weight gradient MatMulTAIn (256×64·64×256, A read transposed) and
// the input gradient MatMulTB (64×256·256×256 with B transposed), all
// above the fan-out threshold. tile8 switches the 16-wide tile off;
// tile16 switches it on and skips on hosts without AVX-512. summit-bench
// floors tile8/tile16 at any core count.
func BenchmarkGemmTrainWide(b *testing.B) {
	const batch, width = 64, 256
	rng := stats.NewRNG(107)
	x := Randn(rng, 1, batch, width)
	w := Randn(rng, 1, width, width)
	dy := Randn(rng, 1, batch, width)
	ar := NewArena()
	for _, tm := range tileModes {
		b.Run(tm.name, func(b *testing.B) {
			defer setTile16(b, tm.on)()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				matMulInto(NewRawIn(ar, batch, width), x, w)
				_ = x.MatMulTAIn(ar, dy)
				_ = dy.MatMulTBIn(ar, w)
			}
		})
	}
}
