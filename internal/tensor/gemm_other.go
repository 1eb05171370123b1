//go:build !amd64 || !gc

package tensor

// gemmSIMD is false where no assembly micro-kernel is built, so gemm
// runs the Go row-stream kernel, sequentially or fanned out by size.
const gemmSIMD = false

// matmulRowsSIMD is matmulBlock over all columns on these hosts;
// gemm never calls it.
func matmulRowsSIMD(dst, a, b []float64, lo, hi, k, n, ars, aks int) {
	matmulBlock(dst, a, b, lo, hi, k, n, 0, n, ars, aks)
}

// matmulTBStrips is never called on these hosts: MatMulTB transposes U
// and multiplies instead.
func matmulTBStrips(dst, a, u, panel []float64, lo, hi, m, k, n int) {
	panic("tensor: no AVX2 micro-kernel on this host")
}
