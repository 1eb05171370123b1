//go:build gc

package tensor

import (
	"fmt"
	"testing"

	"summitscale/internal/stats"
)

// goFallback runs f with gemmSIMD switched off, so every product takes
// the Go fallback it takes on hosts without AVX2.
func goFallback(f func()) {
	saved := gemmSIMD
	gemmSIMD = false
	defer func() { gemmSIMD = saved }()
	f()
}

// TestGoFallbackMatchesRowStream runs the Go GEMM fallback on amd64,
// where every product otherwise takes the AVX2 kernel: with gemmSIMD off,
// MatMul, MatMulTA (a transposed A, read in place by the row-parallel
// band) and MatMulTB (which then transposes its right operand) must
// equal the sequential row-stream kernel bit for bit on every dispatch
// shape.
func TestGoFallbackMatchesRowStream(t *testing.T) {
	goFallback(func() {
		rng := stats.NewRNG(23)
		for _, dims := range dispatchShapes() {
			m, k, n := dims[0], dims[1], dims[2]
			a := Randn(rng, 1, m, k)
			b := Randn(rng, 1, k, n)
			sameBits(t, fmt.Sprintf("MatMul dims %v", dims), a.MatMul(b).Data(), rowStream(a, b))
			at := Randn(rng, 1, k, m)
			sameBits(t, fmt.Sprintf("MatMulTA dims %v", dims), at.MatMulTA(b).Data(), rowStream(at.Transpose2D(), b))
			bt := Randn(rng, 1, n, k)
			sameBits(t, fmt.Sprintf("MatMulTB dims %v", dims), a.MatMulTB(bt).Data(), rowStream(a, bt.Transpose2D()))
		}
	})
}
