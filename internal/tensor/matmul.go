package tensor

import (
	"fmt"
	"sync"

	"summitscale/internal/parallel"
)

// MatMul's dispatch. Where the AVX2 micro-kernel is available
// (gemm_amd64.go), every product runs it: sequentially below
// matmulParallelThreshold, fanned out in gemmRowChunk-row chunks above.
// Elsewhere the Go row-stream kernel (matmulBlock) takes the same two
// levels: sequentially below the threshold, fanned out in
// matmulRowGrain-row chunks above. Every kernel is bit-identical (same
// ascending-k accumulation per output element, same zero-skip), so the
// dispatch is pure performance tuning. With the AVX2 kernel, MatMulTB
// (the product with a transposed right operand) fans out over 8-column
// strips instead (see gemmTB).
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
	// claim overhead, and is a multiple of the SIMD kernel's 4-row tile;
	// it does not affect results (rows are independent).
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
	r := newIn(t.arena, []int{m, n})
	matMulInto(r, t, u)
	return r
}

// MatMulTA returns tᵀ·u for the (K, M) tensor t and the (K, N) tensor u,
// an (M, N) product, without materializing tᵀ: the kernels read t in
// place with strides (1, M). It is bit-identical to
// t.Transpose2D().MatMul(u) — the same ascending-k sum and the same
// zero-skip on the same element of t — and is how a backward pass forms
// a weight gradient Xᵀ·dY.
func (t *Tensor) MatMulTA(u *Tensor) *Tensor { return t.MatMulTAIn(t.arena, u) }

// MatMulTAIn is MatMulTA allocating the result from arena a (nil means
// heap), so a backward pass can put a weight gradient in the step's arena
// whichever operand lives there.
func (t *Tensor) MatMulTAIn(a *Arena, u *Tensor) *Tensor {
	if t.Rank() != 2 || u.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTA of rank %d and %d", t.Rank(), u.Rank()))
	}
	k, m := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTA inner dims %d vs %d", k, k2))
	}
	r := newIn(a, []int{m, n})
	gemm(r.data, t.data, u.data, m, k, n, 1, m)
	return r
}

// MatMulTB returns t·uᵀ for the (M, K) tensor t and the (N, K) tensor
// u, an (M, N) product, without a serial transpose of u. It is
// bit-identical to t.MatMul(u.Transpose2D()) — the same ascending-k sum
// and the same zero-skip on the same element of t — and is how a
// backward pass forms an input gradient dY·Wᵀ. With the AVX2 kernel each
// 8-column strip of the result packs its own eight rows of u (gemmTB);
// elsewhere u is transposed and multiplied.
func (t *Tensor) MatMulTB(u *Tensor) *Tensor { return t.MatMulTBIn(t.arena, u) }

// MatMulTBIn is MatMulTB allocating the result (and, without the AVX2
// kernel, uᵀ) from arena a, so a backward pass can put an input gradient
// in the step's arena whichever operand lives there.
func (t *Tensor) MatMulTBIn(a *Arena, u *Tensor) *Tensor {
	if t.Rank() != 2 || u.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTB of rank %d and %d", t.Rank(), u.Rank()))
	}
	m, k := t.shape[0], t.shape[1]
	n, k2 := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTB inner dims %d vs %d", k, k2))
	}
	r := newIn(a, []int{m, n})
	if gemmSIMD {
		gemmTB(r.data, t.data, u.data, m, k, n)
	} else {
		matMulInto(r, t, u.Transpose2DIn(a))
	}
	return r
}

// matMulInto computes the product of t and u into the zero-filled r,
// dispatching as described above. It lets callers that manage their own
// result storage (convolution's arena-allocated product) share one
// multiply implementation; every path produces bit-identical output.
func matMulInto(r, t, u *Tensor) {
	m, k := t.shape[0], t.shape[1]
	gemm(r.data, t.data, u.data, m, k, u.shape[1], k, 1)
}

// gemm adds the (m, k)·(k, n) product into dst, reading A's element
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
	dst, a, u []float64
	m, k, n   int
	run       func(lo, hi int)
}

var tbJobs = sync.Pool{New: func() any {
	j := new(tbJob)
	j.run = j.strips
	return j
}}

// tbPanels recycles the strips' k×8 panels.
var tbPanels = sync.Pool{New: func() any { return new([]float64) }}

// strips computes strips [lo, hi) through a panel of its own.
func (j *tbJob) strips(lo, hi int) {
	p := tbPanels.Get().(*[]float64)
	if len(*p) < 8*j.k {
		*p = make([]float64, 8*j.k)
	}
	matmulTBStrips(j.dst, j.a, j.u, *p, lo, hi, j.m, j.k, j.n)
	tbPanels.Put(p)
}

// gemmTB adds the product of row-major A (m, k) and the transpose of
// row-major U (n, k) into dst with the AVX2 kernel, one 8-column strip at
// a time (matmulTBStrips): in order below matmulParallelThreshold, one
// strip per pool claim above it, so each strip packs its panel on the
// worker that multiplies it. Strips write disjoint columns, so the result
// is bit-identical at any width. Callers must have checked gemmSIMD.
func gemmTB(dst, a, u []float64, m, k, n int) {
	if k == 0 {
		return
	}
	j := tbJobs.Get().(*tbJob)
	j.dst, j.a, j.u, j.m, j.k, j.n = dst, a, u, m, k, n
	strips := (n + 7) / 8
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
// row-wise and keeps the inner loop vectorizable. Each element's
// arithmetic is the same at any column range: ascending k, skipping a
// zero A element.
func matmulBlock(dst, a, b []float64, lo, hi, k, n, j0, j1, ars, aks int) {
	for i := lo; i < hi; i++ {
		drow := dst[i*n+j0 : i*n+j1]
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
// multiply-add and every architecture keeps the AVX2 kernel's bits. It
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

// MatVec returns the matrix-vector product of the (M, N) tensor t and the
// length-N vector v.
func (t *Tensor) MatVec(v *Tensor) *Tensor {
	if t.Rank() != 2 || v.Rank() != 1 || t.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: MatVec shapes %v, %v", t.shape, v.shape))
	}
	m, n := t.shape[0], t.shape[1]
	r := NewRawIn(t.arena, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		var s float64
		for j, x := range row {
			s += x * v.data[j]
		}
		r.data[i] = s
	}
	return r
}

// Dot returns the inner product of two equal-length rank-1 tensors.
func (t *Tensor) Dot(u *Tensor) float64 {
	if t.Rank() != 1 || u.Rank() != 1 || t.shape[0] != u.shape[0] {
		panic(fmt.Sprintf("tensor: Dot shapes %v, %v", t.shape, u.shape))
	}
	var s float64
	for i := range t.data {
		s += t.data[i] * u.data[i]
	}
	return s
}

// Outer returns the outer product of rank-1 tensors t (len M) and u (len N),
// an (M, N) matrix.
func (t *Tensor) Outer(u *Tensor) *Tensor {
	if t.Rank() != 1 || u.Rank() != 1 {
		panic("tensor: Outer of non-vectors")
	}
	m, n := t.shape[0], u.shape[0]
	r := NewRawIn(t.arena, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			r.data[i*n+j] = t.data[i] * u.data[j]
		}
	}
	return r
}
