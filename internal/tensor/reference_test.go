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
		got := a.MatMulTAIn(nil, b)
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
		_ = NewIn(ar, d[0]*d[1])
		ar.Reset()
		PoisonArena(ar, math.NaN())
		got := x.Transpose2DIn(ar)
		if got.shape[0] != d[1] || got.shape[1] != d[0] {
			t.Fatalf("%v: shape %v", d, got.shape)
		}
		sameBits(t, fmt.Sprintf("%v", d), got.data, referenceTranspose(x))
	}
}

// maxPoolBranching is MaxPool2D as a branching loop: each window keeps
// its first element and takes a later one only when it is strictly
// greater.
func maxPoolBranching(x *Tensor, k, stride int) ([]float64, []int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := convOutDim(h, k, stride, 0)
	ow := convOutDim(w, k, stride, 0)
	out := make([]float64, n*c*oh*ow)
	arg := make([]int, len(out))
	oi := 0
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := base + (oy*stride)*w + ox*stride
					best := x.data[bestIdx]
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							idx := base + (oy*stride+ky)*w + (ox*stride + kx)
							if x.data[idx] > best {
								best = x.data[idx]
								bestIdx = idx
							}
						}
					}
					out[oi] = best
					arg[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out, arg
}

// tiedPoolInput returns an (n, c, h, w) input drawn from -1, ±0 and 1, so
// most windows hold ties, with about one element in seven a NaN of
// either sign. Its first plane starts with 2×2 windows that pin the
// cases: a NaN first, a NaN later, -0 before +0, +0 before -0, and four
// equal elements.
func tiedPoolInput(rng *stats.RNG, n, c, h, w int) *Tensor {
	x := New(n, c, h, w)
	negZero, negNaN := math.Copysign(0, -1), math.Copysign(math.NaN(), -1)
	for i := range x.data {
		switch rng.Intn(7) {
		case 0:
			x.data[i] = math.NaN()
			if rng.Intn(2) == 0 {
				x.data[i] = negNaN
			}
		case 1:
			x.data[i] = negZero
		default:
			x.data[i] = float64(rng.Intn(3) - 1)
		}
	}
	if h >= 2 && w >= 10 {
		windows := [][4]float64{
			{math.NaN(), 1, 2, 3},
			{1, math.NaN(), 2, negNaN},
			{negZero, 0, negZero, 0},
			{0, negZero, 0, negZero},
			{1, 1, 1, 1},
		}
		for j, win := range windows {
			x.data[2*j], x.data[2*j+1] = win[0], win[1]
			x.data[w+2*j], x.data[w+2*j+1] = win[2], win[3]
		}
	}
	return x
}

// TestMaxPool2DMatchesBranching: the branch-free pooling loop picks the
// same element and index as the branching loop on ties, signed-zero ties
// and NaNs first and later in a window, over odd sizes where windows
// leave edges uncovered and six window geometries (SmallCNN's 2×2 stride
// 2 among them), on the heap and in an arena filled with NaN.
func TestMaxPool2DMatchesBranching(t *testing.T) {
	rng := stats.NewRNG(97)
	shapes := [][4]int{{2, 3, 8, 10}, {1, 2, 7, 11}, {2, 1, 5, 5}, {1, 1, 2, 2}, {3, 2, 9, 10}}
	pools := [][2]int{{2, 2}, {3, 1}, {2, 1}, {3, 2}, {3, 3}, {1, 1}}
	for _, s := range shapes {
		x := tiedPoolInput(rng, s[0], s[1], s[2], s[3])
		for _, p := range pools {
			k, stride := p[0], p[1]
			if k > s[2] || k > s[3] {
				continue
			}
			wantOut, wantArg := maxPoolBranching(x, k, stride)
			name := fmt.Sprintf("%v k%d s%d", s, k, stride)
			ar := dirtyArena(2 * len(x.data))
			xa := NewIn(ar, x.shape...)
			copy(xa.data, x.data)
			for _, in := range []*Tensor{x, xa} {
				out, arg := MaxPool2D(in, k, stride)
				sameBits(t, name, out.data, wantOut)
				if len(arg) != len(wantArg) {
					t.Fatalf("%s: %d indices, want %d", name, len(arg), len(wantArg))
				}
				for i := range wantArg {
					if arg[i] != wantArg[i] {
						t.Fatalf("%s: output %d takes index %d, want %d", name, i, arg[i], wantArg[i])
					}
				}
			}
		}
	}
}

// tailOperands returns an (m, k) A with ±0 in about a quarter of its
// elements, a NaN in its middle element and at most one ±Inf in each
// other row, and a (k, n) B with a few ±0 and a +Inf in its middle
// element, which a skipped zero of A must never reach. Every element of
// A·B then holds at most A's NaN or the default NaN (of Inf·0 or
// Inf-Inf), so its bits do not depend on which of two NaNs an addition
// keeps: the AVX2 tiles and the register tails keep the accumulator's,
// the row-stream loop the product's.
func tailOperands(rng *stats.RNG, m, k, n int) (a, b *Tensor) {
	a = Randn(rng, 1, m, k)
	b = Randn(rng, 1, k, n)
	for i := range a.data {
		switch rng.Intn(8) {
		case 0:
			a.data[i] = 0
		case 1:
			a.data[i] = math.Copysign(0, -1)
		}
	}
	mid := len(a.data) / 2
	for i := 0; i < m; i++ {
		if i != mid/k && rng.Intn(2) == 0 {
			a.data[i*k+rng.Intn(k)] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	a.data[mid] = math.NaN()
	for i := range b.data {
		if rng.Intn(6) == 0 {
			b.data[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
		}
	}
	b.data[len(b.data)/2] = math.Inf(1)
	return a, b
}

// TestGemmTailsMatchRowStream: the register tails, which compute the n
// mod 8 columns the micro-kernel leaves (all of them when n < 8), equal
// the row-stream kernel for n mod 8 = 1 to 7 at every m mod 4, with ±0,
// NaN and ±Inf in A, for MatMul, MatMulTA (A read transposed) and
// MatMulTB (whose last strip is the narrow one).
func TestGemmTailsMatchRowStream(t *testing.T) {
	rng := stats.NewRNG(101)
	for _, k := range []int{1, 3, 64} {
		for m := 1; m <= 9; m++ {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 23} {
				a, b := tailOperands(rng, m, k, n)
				want := rowStream(a, b)
				name := fmt.Sprintf("m,k,n=%d,%d,%d", m, k, n)
				sameBits(t, name+" MatMul", a.MatMul(b).data, want)
				sameBits(t, name+" MatMulTA", a.Transpose2D().MatMulTAIn(nil, b).data, want)
				sameBits(t, name+" MatMulTB", a.MatMulTB(b.Transpose2D()).data, want)
			}
		}
	}
}
