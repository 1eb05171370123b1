package tensor

import (
	"fmt"
	"sync"

	"summitscale/internal/parallel"
)

// MatMul's dispatch. Where the assembly tiles are available
// (gemm_amd64.go), every product runs them: sequentially below
// matmulParallelThreshold, fanned out in gemmRowChunk-row chunks above.
// Elsewhere the Go row-stream kernel (matmulBlock) takes the same two
// levels: sequentially below the threshold, fanned out in
// matmulRowGrain-row chunks above. Every kernel is bit-identical (same
// ascending-k accumulation per output element, same zero-skip), so the
// dispatch is pure performance tuning. Every kernel also writes each
// output element it owns without reading it, so products allocate their
// results raw (NewRawIn). With the tiles, MatMulTB (the product with a
// transposed right operand) fans out over column strips instead (see
// gemmTB).
const (
	// matmulParallelThreshold is the m*n*k product above which MatMul
	// fans out across the persistent worker pool. Below it the
	// sequential kernel is faster.
	matmulParallelThreshold = 64 * 64 * 64
	// matmulRowGrain is the row-chunk size for the pool-parallel
	// row-stream path; results do not depend on it (rows are
	// independent).
	matmulRowGrain = 8
	// gemmRowChunk rows of output form one unit of worker dispatch for
	// the SIMD fan-out. The value trades load balance against per-chunk
	// claim overhead, and is a multiple of the tiles' 4 rows; it does
	// not affect results (rows are independent).
	gemmRowChunk = 16
)

// GemmKCEnv, SetGemmKC and GemmKC are a no-op shim: no GEMM kernel has a
// k-panel depth, so SetGemmKC does nothing, GemmKC returns 0 and nothing
// reads the environment variable. They exist only because the benchmark
// harness (perfbench) still pins them, and go with its next change.
const GemmKCEnv = "SUMMITSCALE_GEMM_KC"

// SetGemmKC does nothing; see GemmKCEnv.
func SetGemmKC(int) {}

// GemmKC returns 0; see GemmKCEnv.
func GemmKC() int { return 0 }

// MatMul returns the matrix product of the (M, K) tensor t and the (K, N)
// tensor u, computed by the kernel the dispatch above picks and
// parallelized over row bands for large problems.
func (t *Tensor) MatMul(u *Tensor) *Tensor {
	if t.Rank() != 2 || u.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul of rank %d and %d", t.Rank(), u.Rank()))
	}
	m, k := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	r := NewRawIn(t.arena, m, n)
	matMulInto(r, t, u)
	return r
}

// MatMulTAIn returns tᵀ·u for the (K, M) tensor t and the (K, N) tensor
// u, an (M, N) product, without materializing tᵀ: the kernels read t in
// place with strides (1, M). It is bit-identical to
// t.Transpose2D().MatMul(u) — the same ascending-k sum and the same
// zero-skip on the same element of t — and is how a backward pass forms
// a weight gradient Xᵀ·dY. The result comes from arena a (nil means
// heap), so a backward pass can put a weight gradient in the step's arena
// whichever operand lives there.
func (t *Tensor) MatMulTAIn(a *Arena, u *Tensor) *Tensor {
	if t.Rank() != 2 || u.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTAIn of rank %d and %d", t.Rank(), u.Rank()))
	}
	k, m := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTAIn inner dims %d vs %d", k, k2))
	}
	r := NewRawIn(a, m, n)
	gemm(r.data, t.data, u.data, m, k, n, 1, m)
	return r
}

// MatMulTB returns t·uᵀ for the (M, K) tensor t and the (N, K) tensor
// u, an (M, N) product, without a serial transpose of u. It is
// bit-identical to t.MatMul(u.Transpose2D()) — the same ascending-k sum
// and the same zero-skip on the same element of t — and is how a
// backward pass forms an input gradient dY·Wᵀ. With the assembly tiles
// each 16- or 8-column strip of the result packs its own rows of u
// (gemmTB); elsewhere u is transposed and multiplied.
func (t *Tensor) MatMulTB(u *Tensor) *Tensor { return t.MatMulTBIn(t.arena, u) }

// MatMulTBIn is MatMulTB allocating the result (and, without the
// assembly tiles, uᵀ) from arena a, so a backward pass can put an input
// gradient in the step's arena whichever operand lives there.
func (t *Tensor) MatMulTBIn(a *Arena, u *Tensor) *Tensor {
	if t.Rank() != 2 || u.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTB of rank %d and %d", t.Rank(), u.Rank()))
	}
	m, k := t.shape[0], t.shape[1]
	n, k2 := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTB inner dims %d vs %d", k, k2))
	}
	r := NewRawIn(a, m, n)
	if gemmSIMD {
		gemmTB(r.data, t.data, u.data, m, k, n)
	} else {
		matMulInto(r, t, u.Transpose2DIn(a))
	}
	return r
}

// matMulInto writes the product of t and u into r, dispatching as
// described above. It lets callers that manage their own result storage
// (convolution's arena-allocated product) share one multiply
// implementation; every path writes every element of r without reading
// it, so r may come from NewRawIn, and produces bit-identical output.
func matMulInto(r, t, u *Tensor) {
	m, k := t.shape[0], t.shape[1]
	gemm(r.data, t.data, u.data, m, k, u.shape[1], k, 1)
}

// gemm writes the (m, k)·(k, n) product into dst, reading A's element
// (i, kk) at a[i*ars+kk*aks]: row-major A has strides (k, 1), A stored
// transposed has (1, m). Every kernel reads A in place either way.
func gemm(dst, a, b []float64, m, k, n, ars, aks int) {
	switch {
	case m*n*k >= matmulParallelThreshold:
		matMulParallel(dst, a, b, m, k, n, ars, aks)
	case gemmSIMD:
		matmulRowsSIMD(dst, a, b, 0, m, k, n, ars, aks)
	default:
		matmulBlock(dst, a, b, 0, m, k, n, 0, n, ars, aks)
	}
}

// gemmJob carries one fanned-out product to the pool. Jobs are recycled
// with their rows method value bound once, so unlike a closure literal
// the fan-out allocates nothing in steady state.
type gemmJob struct {
	dst, a, b []float64
	k, n      int
	ars, aks  int
	run       func(lo, hi int)
}

var gemmJobs = sync.Pool{New: func() any {
	j := new(gemmJob)
	j.run = j.rows
	return j
}}

// rows computes rows [lo, hi) with the kernel gemm would run serially.
func (j *gemmJob) rows(lo, hi int) {
	if gemmSIMD {
		matmulRowsSIMD(j.dst, j.a, j.b, lo, hi, j.k, j.n, j.ars, j.aks)
	} else {
		matmulBlock(j.dst, j.a, j.b, lo, hi, j.k, j.n, 0, j.n, j.ars, j.aks)
	}
}

// matMulParallel fans the product out over the persistent worker pool in
// row chunks: gemmRowChunk rows for the SIMD kernel (a multiple of its
// 4-row tile, so only the last chunk has trailing rows), matmulRowGrain
// for the row-stream kernel. Rows are independent, so the result is
// bit-identical at any width.
func matMulParallel(dst, a, b []float64, m, k, n, ars, aks int) {
	grain := matmulRowGrain
	if gemmSIMD {
		grain = gemmRowChunk
	}
	j := gemmJobs.Get().(*gemmJob)
	j.dst, j.a, j.b, j.k, j.n, j.ars, j.aks = dst, a, b, k, n, ars, aks
	parallel.Shared().RunRange(m, grain, j.run)
	j.dst, j.a, j.b = nil, nil, nil
	gemmJobs.Put(j)
}

// tbJob carries one MatMulTB product's strips, recycled like gemmJob.
type tbJob struct {
	dst, a, u   []float64
	m, k, n, sw int
	run         func(lo, hi int)
}

var tbJobs = sync.Pool{New: func() any {
	j := new(tbJob)
	j.run = j.strips
	return j
}}

// tbPanels recycles the strips' k×16 and k×8 panels.
var tbPanels = sync.Pool{New: func() any { return new([]float64) }}

// strips computes strips [lo, hi) through a panel of its own.
func (j *tbJob) strips(lo, hi int) {
	p := tbPanels.Get().(*[]float64)
	if len(*p) < j.sw*j.k {
		*p = make([]float64, j.sw*j.k)
	}
	matmulTBStrips(j.dst, j.a, j.u, *p, lo, hi, j.m, j.k, j.n, j.sw)
	tbPanels.Put(p)
}

// gemmTB writes the product of row-major A (m, k) and the transpose of
// row-major U (n, k) into dst with the assembly tiles, one strip of 16
// columns (with gemm16) or 8 at a time (matmulTBStrips): in order below
// matmulParallelThreshold, one strip per pool claim above it, so each
// strip packs its panel on the worker that multiplies it. Strips write
// disjoint columns, so the result is bit-identical at any width. With
// k = 0 the product is +0. Callers must have checked gemmSIMD.
func gemmTB(dst, a, u []float64, m, k, n int) {
	if k == 0 {
		clear(dst)
		return
	}
	sw := 8
	if gemm16 {
		sw = 16
	}
	j := tbJobs.Get().(*tbJob)
	j.dst, j.a, j.u, j.m, j.k, j.n, j.sw = dst, a, u, m, k, n, sw
	strips := (n + sw - 1) / sw
	if m*n*k < matmulParallelThreshold {
		j.strips(0, strips)
	} else {
		parallel.Shared().RunRange(strips, 1, j.run)
	}
	j.dst, j.a, j.u = nil, nil, nil
	tbJobs.Put(j)
}

// matmulBlock computes rows [lo, hi) of the (m, n) product restricted to
// output columns [j0, j1), with A's element (i, kk) at a[i*ars+kk*aks].
// It is the row-stream kernel: an ikj loop order, which streams through b
// row-wise and keeps the inner loop vectorizable. It clears each row's
// columns before it adds into them, so it writes them whatever they held
// and the clearing runs inside the fan-out. Each element's arithmetic is
// the same at any column range: from +0, ascending k, skipping a zero A
// element.
func matmulBlock(dst, a, b []float64, lo, hi, k, n, j0, j1, ars, aks int) {
	for i := lo; i < hi; i++ {
		drow := dst[i*n+j0 : i*n+j1]
		clear(drow)
		for kk := 0; kk < k; kk++ {
			av := a[i*ars+kk*aks]
			if av == 0 {
				continue
			}
			addScaledRow(drow, b[kk*n+j0:kk*n+j1], av)
		}
	}
}

// addScaledRow adds av·s[j] into d[j] for every j. The explicit
// conversion rounds the product on its own, so no target fuses it into a
// multiply-add and every architecture keeps the assembly tiles' bits. It
// stays out of line: inlined into matmulBlock's k loop, the strides kept
// live there pushed this loop's index onto the stack, which doubled the
// kernel's time.
//
//go:noinline
func addScaledRow(d, s []float64, av float64) {
	s = s[:len(d)]
	for j := range d {
		d[j] += float64(av * s[j])
	}
}

// transposeBlock is the side of the square tiles Transpose2DIn copies.
// Walking a whole source row writes down a destination column at a
// stride of m elements, which touches a new cache line per element; a
// 16×16 tile keeps its 16 destination lines resident while they fill.
// Larger tiles collide in the cache sets at power-of-two row strides.
const transposeBlock = 16

// Transpose2D returns the transpose of a rank-2 tensor.
func (t *Tensor) Transpose2D() *Tensor { return t.Transpose2DIn(t.arena) }

// Transpose2DIn is Transpose2D allocating the result from arena a. Every
// element of the result is written, so it skips the arena's zero-fill.
func (t *Tensor) Transpose2DIn(a *Arena) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Transpose2D of non-matrix")
	}
	m, n := t.shape[0], t.shape[1]
	r := NewRawIn(a, n, m)
	for i0 := 0; i0 < m; i0 += transposeBlock {
		i1 := min(i0+transposeBlock, m)
		for j0 := 0; j0 < n; j0 += transposeBlock {
			j1 := min(j0+transposeBlock, n)
			for i := i0; i < i1; i++ {
				for j, v := range t.data[i*n+j0 : i*n+j1] {
					r.data[(j0+j)*m+i] = v
				}
			}
		}
	}
	return r
}
