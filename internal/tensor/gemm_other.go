//go:build !amd64 || !gc

package tensor

// gemmSIMD and gemm16 are false where no assembly tile is built, so gemm
// runs the Go row-stream kernel, sequentially or fanned out by size.
const gemmSIMD, gemm16 = false, false

// matmulRowsSIMD is matmulBlock over all columns on these hosts;
// gemm never calls it.
func matmulRowsSIMD(dst, a, b []float64, lo, hi, k, n, ars, aks int) {
	matmulBlock(dst, a, b, lo, hi, k, n, 0, n, ars, aks)
}

// matmulTBStrips is never called on these hosts: MatMulTB transposes U
// and multiplies instead.
func matmulTBStrips(dst, a, u, panel []float64, lo, hi, m, k, n, sw int) {
	panic("tensor: no AVX2 tile on this host")
}
