package tensor

import (
	"testing"
	"testing/quick"

	"summitscale/internal/stats"
)

// matmulRows computes rows [lo, hi) of the (m, n) product of row-major A
// and B with the row-stream kernel: the reference the other kernels'
// tests compare against and the baseline of the kernel floors.
func matmulRows(dst, a, b []float64, lo, hi, k, n int) {
	matmulBlock(dst, a, b, lo, hi, k, n, 0, n, k, 1)
}

// matmulNaive is the textbook ijk kernel: the independent reference of the
// property tests and the baseline of the GEMM ablation benchmark.
func matmulNaive(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for kk := 0; kk < k; kk++ {
				acc += a[i*k+kk] * b[kk*n+j]
			}
			dst[i*n+j] = acc
		}
	}
}

// TestMatMulMatchesNaiveProperty cross-checks MatMul's dispatch against
// the independent naive kernel on random shapes, most of them with edge
// rows and columns around the SIMD tiles.
func TestMatMulMatchesNaiveProperty(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		m := rng.Intn(40) + 1
		k := rng.Intn(40) + 1
		n := rng.Intn(40) + 1
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := New(m, n)
		matmulNaive(want.Data(), a.Data(), b.Data(), m, k, n)
		return a.MatMul(b).Equal(want, 1e-9)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Kernel ablation: naive ijk vs row-streamed ikj vs SIMD, at a size where
// cache behaviour matters.
func benchGemm(b *testing.B, kernel func(dst, a, bb []float64, m, k, n int), sz int) {
	rng := stats.NewRNG(1)
	a := Randn(rng, 1, sz, sz)
	bb := Randn(rng, 1, sz, sz)
	dst := New(sz, sz)
	b.SetBytes(int64(2 * sz * sz * sz * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst.Data(), a.Data(), bb.Data(), sz, sz, sz)
	}
}

func BenchmarkGemmNaive256(b *testing.B) {
	benchGemm(b, matmulNaive, 256)
}

func BenchmarkGemmRowStream256(b *testing.B) {
	benchGemm(b, func(dst, a, bb []float64, m, k, n int) {
		matmulRows(dst, a, bb, 0, m, k, n)
	}, 256)
}
