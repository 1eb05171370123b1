//go:build !amd64 || !gc

package tensor

// gemmSIMD is false where no assembly micro-kernel is built, so
// matMulInto keeps its three-level dispatch over the Go kernels.
const gemmSIMD = false

// matmulRowsSIMD is matmulBlock over all columns on these hosts;
// matMulInto never calls it.
func matmulRowsSIMD(dst, a, b []float64, lo, hi, k, n, ars, aks int) {
	matmulBlock(dst, a, b, lo, hi, k, n, 0, n, ars, aks)
}
