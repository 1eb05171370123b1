package tensor

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"summitscale/internal/parallel"
)

// Packed parallel GEMM, the largest products' kernel on hosts without
// the AVX2 micro-kernel (gemm_amd64.go): the B operand is repacked once
// per call into contiguous (KC x NR) column micro-panels so the inner
// kernel streams one cache line after another instead of striding
// across B's rows, and the output is computed in independent row panels
// fanned out over the persistent worker pool (parallel.Shared). Each
// output element accumulates its k-terms in ascending order with the
// same zero-skip as matmulBlock, so the packed kernel is bit-identical to
// the row-streamed kernel — and to itself at every worker count — which
// is what lets MatMul dispatch between kernels on size alone without
// perturbing a single golden byte.
const (
	// gemmNR is the register tile width: one micro-kernel pass holds NR
	// output columns of up to two rows in registers across a whole
	// k-panel, cutting the per-k dst load/store traffic of the
	// row-streamed kernel by a factor of KC.
	gemmNR = 4
	// gemmRowChunk rows of output form one unit of worker dispatch for
	// the packed and the SIMD fan-out. The value trades load balance
	// against per-chunk claim overhead, and is a multiple of the SIMD
	// kernel's 4-row tile; it does not affect results (rows are
	// independent).
	gemmRowChunk = 16
)

// The k-panel depth is resolved per call by resolveGemmKC: an explicit
// SetGemmKC pin wins, then the GemmKCEnv environment variable, then a
// one-shot wall-clock micro-autotune (autotuneKC). The panel depth only
// changes traversal order across full k-sweeps, never the per-element
// accumulation order, so any value is bit-identical to any other — but
// the wall-clock autotune makes the *choice* vary run-to-run under load,
// which is why benchmarks and CI pin it (the perf baseline should not
// drift because a noisy neighbour skewed a 3-sample timing race).
var (
	// gemmKCPin, when positive, overrides autotuning entirely. Atomic so
	// SetGemmKC is safe against concurrent multiplies under -race.
	gemmKCPin atomic.Int64
	// gemmKCAuto caches the autotuned depth; written once under
	// gemmKCOnce, read atomically on the hot path.
	gemmKCOnce sync.Once
	gemmKCAuto atomic.Int64
	gemmKCEnv  sync.Once
)

// GemmKCEnv is the environment variable that pins the GEMM k-panel
// depth (e.g. SUMMITSCALE_GEMM_KC=256), read once at first multiply.
// SetGemmKC takes precedence over it.
const GemmKCEnv = "SUMMITSCALE_GEMM_KC"

// gemmKCCandidates are the panel depths the init-time autotune times.
// 256 doubles = 2 KiB per packed micro-panel column strip.
var gemmKCCandidates = [...]int{128, 256, 512}

// SetGemmKC pins the packed GEMM k-panel depth, bypassing the
// wall-clock autotune; kc <= 0 clears the pin and re-enables it. Every
// depth produces bit-identical output (TestGemmBitIdenticalAcrossKC),
// so this is purely a performance/reproducibility-of-timing control.
// The SIMD kernel has no k-panels: where MatMul runs it, KC has no effect.
func SetGemmKC(kc int) {
	if kc < 0 {
		kc = 0
	}
	gemmKCPin.Store(int64(kc))
}

// GemmKC reports the k-panel depth the next packed multiply will use.
func GemmKC() int { return resolveGemmKC() }

// resolveGemmKC picks the panel depth: pin, then env, then autotune.
func resolveGemmKC() int {
	if v := gemmKCPin.Load(); v > 0 {
		return int(v)
	}
	gemmKCEnv.Do(func() {
		if kc := gemmKCFromEnv(os.Getenv(GemmKCEnv)); kc > 0 {
			// CompareAndSwap so an earlier SetGemmKC still wins.
			gemmKCPin.CompareAndSwap(0, int64(kc))
		}
	})
	if v := gemmKCPin.Load(); v > 0 {
		return int(v)
	}
	autotuneKC()
	return int(gemmKCAuto.Load())
}

// gemmKCFromEnv parses a GemmKCEnv value; empty, malformed, or
// non-positive strings mean "no pin" (0).
func gemmKCFromEnv(s string) int {
	if s == "" {
		return 0
	}
	kc, err := strconv.Atoi(s)
	if err != nil || kc <= 0 {
		return 0
	}
	return kc
}

// autotuneKC times one mid-sized packed multiply per candidate panel
// depth and keeps the fastest. It runs once per process, costs a few
// milliseconds, and only ever changes performance: the kernel's output
// is identical for every KC.
func autotuneKC() {
	gemmKCOnce.Do(func() {
		const sz = 160
		a := make([]float64, sz*sz)
		b := make([]float64, sz*sz)
		dst := make([]float64, sz*sz)
		for i := range a {
			a[i] = float64(i%17) - 8
			b[i] = float64(i%13) - 6
		}
		best, bestT := gemmKCCandidates[0], time.Duration(1<<62)
		for _, kc := range gemmKCCandidates {
			clear(dst)
			start := time.Now()
			packBuf := packB(b, sz, sz, kc)
			gemmPackedRows(dst, a, packBuf, 0, sz, sz, sz, kc)
			if d := time.Since(start); d < bestT {
				best, bestT = kc, d
			}
			putPackBuf(packBuf)
		}
		gemmKCAuto.Store(int64(best))
	})
}

// packPool recycles the packed-B buffers so the steady-state packed
// multiply performs no allocation beyond its result tensor.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func getPackBuf(n int) []float64 {
	bp := packPool.Get().(*[]float64)
	buf := *bp
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	*bp = nil
	packPool.Put(bp)
	return buf[:n]
}

func putPackBuf(buf []float64) {
	bp := packPool.Get().(*[]float64)
	*bp = buf
	packPool.Put(bp)
}

// packB repacks the (k, n) matrix b into KC-deep column micro-panels:
// for each k-panel, for each NR-wide column tile, the panel's rows are
// stored contiguously NR values at a time. The trailing column tile is
// zero-padded to NR so the micro-kernel never branches on width; the
// padded lanes are discarded at store time.
func packB(b []float64, k, n, kc int) []float64 {
	nTiles := (n + gemmNR - 1) / gemmNR
	buf := getPackBuf(k * nTiles * gemmNR)
	pos := 0
	for k0 := 0; k0 < k; k0 += kc {
		k1 := k0 + kc
		if k1 > k {
			k1 = k
		}
		for jt := 0; jt < nTiles; jt++ {
			j0 := jt * gemmNR
			for kk := k0; kk < k1; kk++ {
				row := b[kk*n:]
				for r := 0; r < gemmNR; r++ {
					if j := j0 + r; j < n {
						buf[pos] = row[j]
					} else {
						buf[pos] = 0
					}
					pos++
				}
			}
		}
	}
	return buf
}

// gemmPackedRows computes output rows [lo, hi) of the (m, n) product
// from a and the packed B buffer. Row pairs share each packed panel
// load; the accumulation order for every output element is ascending k
// with the matmulBlock zero-skip, so the result is bit-identical to the
// row-streamed kernel.
func gemmPackedRows(dst, a, packed []float64, lo, hi, k, n, kc int) {
	nTiles := (n + gemmNR - 1) / gemmNR
	panelStride := nTiles * gemmNR // packed values per k-row
	i := lo
	for ; i+1 < hi; i += 2 {
		gemmPackedRowPair(dst, a, packed, i, k, n, kc, panelStride)
	}
	if i < hi {
		gemmPackedRow(dst, a, packed, i, k, n, kc, panelStride)
	}
}

// gemmPackedRowPair advances two output rows through every k-panel and
// column tile, holding 2x4 accumulators in registers.
func gemmPackedRowPair(dst, a, packed []float64, i, k, n, kc, panelStride int) {
	arow0 := a[i*k : (i+1)*k]
	arow1 := a[(i+1)*k : (i+2)*k]
	drow0 := dst[i*n : (i+1)*n]
	drow1 := dst[(i+1)*n : (i+2)*n]
	panelBase := 0
	for k0 := 0; k0 < k; k0 += kc {
		k1 := k0 + kc
		if k1 > k {
			k1 = k
		}
		depth := k1 - k0
		for j0 := 0; j0 < n; j0 += gemmNR {
			bp := packed[panelBase+(j0/gemmNR)*depth*gemmNR:]
			nj := n - j0
			if nj >= gemmNR {
				var c00, c01, c02, c03 float64
				var c10, c11, c12, c13 float64
				c00, c01, c02, c03 = drow0[j0], drow0[j0+1], drow0[j0+2], drow0[j0+3]
				c10, c11, c12, c13 = drow1[j0], drow1[j0+1], drow1[j0+2], drow1[j0+3]
				p := 0
				for kk := k0; kk < k1; kk++ {
					b0, b1, b2, b3 := bp[p], bp[p+1], bp[p+2], bp[p+3]
					p += gemmNR
					if av := arow0[kk]; av != 0 {
						c00 += av * b0
						c01 += av * b1
						c02 += av * b2
						c03 += av * b3
					}
					if av := arow1[kk]; av != 0 {
						c10 += av * b0
						c11 += av * b1
						c12 += av * b2
						c13 += av * b3
					}
				}
				drow0[j0], drow0[j0+1], drow0[j0+2], drow0[j0+3] = c00, c01, c02, c03
				drow1[j0], drow1[j0+1], drow1[j0+2], drow1[j0+3] = c10, c11, c12, c13
				continue
			}
			// Trailing tile: the packed panel is zero-padded, so run the
			// same kernel into a stack tile and copy out the valid lanes.
			var t0, t1 [gemmNR]float64
			for r := 0; r < nj; r++ {
				t0[r] = drow0[j0+r]
				t1[r] = drow1[j0+r]
			}
			p := 0
			for kk := k0; kk < k1; kk++ {
				if av := arow0[kk]; av != 0 {
					t0[0] += av * bp[p]
					t0[1] += av * bp[p+1]
					t0[2] += av * bp[p+2]
					t0[3] += av * bp[p+3]
				}
				if av := arow1[kk]; av != 0 {
					t1[0] += av * bp[p]
					t1[1] += av * bp[p+1]
					t1[2] += av * bp[p+2]
					t1[3] += av * bp[p+3]
				}
				p += gemmNR
			}
			for r := 0; r < nj; r++ {
				drow0[j0+r] = t0[r]
				drow1[j0+r] = t1[r]
			}
		}
		panelBase += depth * panelStride
	}
}

// gemmPackedRow is the single-row tail of gemmPackedRowPair.
func gemmPackedRow(dst, a, packed []float64, i, k, n, kc, panelStride int) {
	arow := a[i*k : (i+1)*k]
	drow := dst[i*n : (i+1)*n]
	panelBase := 0
	for k0 := 0; k0 < k; k0 += kc {
		k1 := k0 + kc
		if k1 > k {
			k1 = k
		}
		depth := k1 - k0
		for j0 := 0; j0 < n; j0 += gemmNR {
			bp := packed[panelBase+(j0/gemmNR)*depth*gemmNR:]
			nj := n - j0
			if nj >= gemmNR {
				c0, c1, c2, c3 := drow[j0], drow[j0+1], drow[j0+2], drow[j0+3]
				p := 0
				for kk := k0; kk < k1; kk++ {
					if av := arow[kk]; av != 0 {
						c0 += av * bp[p]
						c1 += av * bp[p+1]
						c2 += av * bp[p+2]
						c3 += av * bp[p+3]
					}
					p += gemmNR
				}
				drow[j0], drow[j0+1], drow[j0+2], drow[j0+3] = c0, c1, c2, c3
				continue
			}
			var t [gemmNR]float64
			for r := 0; r < nj; r++ {
				t[r] = drow[j0+r]
			}
			p := 0
			for kk := k0; kk < k1; kk++ {
				if av := arow[kk]; av != 0 {
					t[0] += av * bp[p]
					t[1] += av * bp[p+1]
					t[2] += av * bp[p+2]
					t[3] += av * bp[p+3]
				}
				p += gemmNR
			}
			for r := 0; r < nj; r++ {
				drow[j0+r] = t[r]
			}
		}
		panelBase += depth * panelStride
	}
}

// matMulPackedInto computes the full (m, n) product into the zero-filled
// dst slice using the packed kernel, fanning output row chunks out over
// the persistent worker pool. Rows are independent, so the result is
// bit-identical at any worker count.
func matMulPackedInto(dst, a, b []float64, m, k, n int) {
	kc := resolveGemmKC()
	packed := packB(b, k, n, kc)
	parallel.Shared().RunRange(m, gemmRowChunk, func(lo, hi int) {
		gemmPackedRows(dst, a, packed, lo, hi, k, n, kc)
	})
	putPackBuf(packed)
}
