//go:build gc

package tensor

import (
	"fmt"
	"testing"

	"summitscale/internal/stats"
)

// TestGoFallbackMatchesRowStream runs the Go GEMM fallback on amd64,
// where every product otherwise takes the AVX2 kernel: with gemmSIMD off,
// MatMul and MatMulTA (a transposed A, read in place by the row-parallel
// band) must equal the sequential row-stream kernel bit for bit on every
// dispatch shape.
func TestGoFallbackMatchesRowStream(t *testing.T) {
	saved := gemmSIMD
	gemmSIMD = false
	defer func() { gemmSIMD = saved }()

	rng := stats.NewRNG(23)
	for _, dims := range dispatchShapes() {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		sameBits(t, fmt.Sprintf("MatMul dims %v", dims), a.MatMul(b).Data(), rowStream(a, b))
		at := Randn(rng, 1, k, m)
		sameBits(t, fmt.Sprintf("MatMulTA dims %v", dims), at.MatMulTA(b).Data(), rowStream(at.Transpose2D(), b))
	}
}
