package tensor

import (
	"fmt"
	"testing"

	"summitscale/internal/parallel"
	"summitscale/internal/stats"
)

// Cross-worker determinism suite: the production kernels dispatch over
// parallel.Shared(), whose width is fixed by GOMAXPROCS, so these tests
// drive the identical kernel + chunk decomposition through explicit
// pools of widths 1, 2, 4 and 8 and assert bit-identical output. That is
// the exact guarantee MatMul/Im2Col/Col2Im rely on to stay
// golden-stable on any machine.

// TestGemmRowsDeterministicAcrossWorkers drives the Go row-stream kernel
// through the matmulRowGrain decomposition matMulParallel uses for it. m is
// not a multiple of the grain, so the last chunk is short at every width.
func TestGemmRowsDeterministicAcrossWorkers(t *testing.T) {
	rng := stats.NewRNG(29)
	m, k, n := 130, 140, 150
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)

	run := func(w int) []float64 {
		pool := parallel.NewWorkerPool(w)
		defer pool.Close()
		dst := make([]float64, m*n)
		pool.RunRange(m, matmulRowGrain, func(lo, hi int) {
			matmulBlock(dst, a.Data(), b.Data(), lo, hi, k, n, 0, n, k, 1)
		})
		return dst
	}
	ref := rowStream(a, b)
	for _, w := range []int{1, 2, 4, 8} {
		sameBits(t, fmt.Sprintf("workers=%d", w), run(w), ref)
	}
}

// TestGemmSIMDDeterministicAcrossWorkers drives the SIMD rows through
// the same gemmRowChunk decomposition matMulParallel uses, with each
// tile. m is not a multiple of the chunk or the 4-row tile, and n = 158
// leaves one 8-wide tile and six tail columns after the 16-wide tiles
// (six after the 8-wide ones), so edge rows and columns run at every
// width.
func TestGemmSIMDDeterministicAcrossWorkers(t *testing.T) {
	rng := stats.NewRNG(31)
	m, k, n := 133, 140, 158
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)

	run := func(w int) []float64 {
		pool := parallel.NewWorkerPool(w)
		defer pool.Close()
		dst := make([]float64, m*n)
		pool.RunRange(m, gemmRowChunk, func(lo, hi int) {
			matmulRowsSIMD(dst, a.Data(), b.Data(), lo, hi, k, n, k, 1)
		})
		return dst
	}
	ref := rowStream(a, b)
	forEachTile(t, func(t *testing.T) {
		for _, w := range []int{1, 2, 4, 8} {
			sameBits(t, fmt.Sprintf("workers=%d", w), run(w), ref)
		}
	})
}

func TestIm2ColDeterministicAcrossWorkers(t *testing.T) {
	rng := stats.NewRNG(31)
	const nImg, c, h, w, kh, kw = 3, 4, 11, 11, 3, 3
	opts := Conv2DOpts{Stride: 2, Padding: 1}
	x := Randn(rng, 1, nImg, c, h, w)
	oh := convOutDim(h, kh, opts.Stride, opts.Padding)
	ow := convOutDim(w, kw, opts.Stride, opts.Padding)

	run := func(workers int) []float64 {
		pool := parallel.NewWorkerPool(workers)
		defer pool.Close()
		cols := make([]float64, nImg*oh*ow*c*kh*kw)
		xp, hp, wp := padPlanes(nil, x.Data(), nImg*c, h, w, opts.Padding)
		pool.RunRange(nImg*oh, convRowGrain, func(lo, hi int) {
			im2colRows(cols, xp, lo, hi, c, hp, wp, oh, ow, kh, kw, opts.Stride)
		})
		return cols
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: unfold cell %d differs", workers, i)
			}
		}
	}
	// And the production entry point must agree with the reference fill.
	prod := Im2Col(x, kh, kw, opts)
	for i, v := range prod.Data() {
		if v != ref[i] {
			t.Fatalf("Im2Col diverges from reference fill at %d", i)
		}
	}
}

func TestCol2ImDeterministicAcrossWorkers(t *testing.T) {
	rng := stats.NewRNG(37)
	const nImg, c, h, w, kh, kw = 5, 3, 9, 9, 3, 3
	opts := Conv2DOpts{Stride: 1, Padding: 1}
	oh := convOutDim(h, kh, opts.Stride, opts.Padding)
	ow := convOutDim(w, kw, opts.Stride, opts.Padding)
	cols := Randn(rng, 1, nImg*oh*ow, c*kh*kw)

	run := func(workers int) []float64 {
		pool := parallel.NewWorkerPool(workers)
		defer pool.Close()
		hp, wp := h+2*opts.Padding, w+2*opts.Padding
		xp := make([]float64, nImg*c*hp*wp)
		pool.RunRange(nImg, 1, func(lo, hi int) {
			col2imImages(xp, cols.Data(), lo, hi, c, hp, wp, oh, ow, kh, kw, opts.Stride)
		})
		// The padded planes' interiors, as Col2Im returns them.
		x := make([]float64, 0, nImg*c*h*w)
		for pl := 0; pl < nImg*c; pl++ {
			for y := 0; y < h; y++ {
				x = append(x, xp[(pl*hp+y+opts.Padding)*wp+opts.Padding:][:w]...)
			}
		}
		return x
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: folded element %d differs: %v vs %v", workers, i, got[i], ref[i])
			}
		}
	}
	// The production fold must agree with the reference.
	prod := Col2Im(cols, nImg, c, h, w, kh, kw, opts)
	for i, v := range prod.Data() {
		if v != ref[i] {
			t.Fatalf("Col2Im diverges from reference fold at %d", i)
		}
	}
}
