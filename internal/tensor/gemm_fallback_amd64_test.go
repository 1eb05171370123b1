//go:build gc

package tensor

import (
	"fmt"
	"math"
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

// setTile16 switches the 16-wide tile on or off and returns a function
// that restores the switch. Switching it on skips tb on hosts without
// AVX-512.
func setTile16(tb testing.TB, on bool) (restore func()) {
	if on && !hasAVX512 {
		tb.Skip("no AVX-512 tile on this host")
	}
	saved := gemm16
	gemm16 = on
	return func() { gemm16 = saved }
}

// TestGemmTilesFollowProbe logs which tiles this host runs, so that a
// CI run with -v says whether it exercised the 16-wide tile, and checks
// that the dispatch took the start-up probe's answer: a second probe
// agrees, and the 16-wide tile runs only beside the 8-wide one.
func TestGemmTilesFollowProbe(t *testing.T) {
	t.Logf("GEMM tiles on this host: 8-wide AVX2 %v, 16-wide AVX-512 %v", gemmSIMD, gemm16)
	avx2, avx512 := probeSIMD()
	if gemmSIMD != avx2 || gemm16 != avx512 || HasAVX2() != avx2 {
		t.Fatalf("dispatch runs AVX2 %v and AVX-512 %v (HasAVX2 %v), the probe says %v and %v",
			gemmSIMD, gemm16, HasAVX2(), avx2, avx512)
	}
	if gemm16 && !gemmSIMD {
		t.Fatal("the 16-wide tile is on without the 8-wide one")
	}
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
			sameBits(t, fmt.Sprintf("MatMulTA dims %v", dims), at.MatMulTAIn(nil, b).Data(), rowStream(at.Transpose2D(), b))
			bt := Randn(rng, 1, n, k)
			sameBits(t, fmt.Sprintf("MatMulTB dims %v", dims), a.MatMulTB(bt).Data(), rowStream(a, bt.Transpose2D()))
		}
	})
}

// TestGemmNaNPayloads pins which NaN an element of a product keeps where
// two different NaNs meet in its sum. Every row of A is ones with a NaN
// of payload 1 at k = 2, and every column of B is ones under +Inf and
// -Inf, so the sum holds the default NaN of Inf-Inf (0xfff8…0 on x86)
// when A's NaN product arrives. An SSE or AVX add keeps its destination's
// NaN, and which operand of a Go += is the destination is the compiler's
// choice. Both tiles (VADDPD into the accumulator) and the register tails
// keep the accumulator's NaN; the row-stream loop (addScaledRow), which
// computes the trailing m mod 4 rows' first n &^ 7 columns beside the
// tiles and every element without AVX2, keeps the product's. At
// m, k, n = 5, 64, 26 every path runs, with the 16-wide tile over
// columns 0–15 where it is on, the 8-wide one over 16–23 and the tails
// over 24–25, and a compiler that swaps the operands of any of those adds
// fails here. A -race build allocates registers differently and swaps
// some of them, so the pin is for the optimized build only.
func TestGemmNaNPayloads(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes which operand of a Go += is the destination")
	}
	const m, k, n = 5, 64, 26
	const payloadNaN, defaultNaN = 0x7ff8000000000001, 0xfff8000000000000
	a, b := New(m, k), New(k, n)
	for i := range a.data {
		a.data[i] = 1
	}
	for i := range b.data {
		b.data[i] = 1
	}
	for j := 0; j < n; j++ {
		b.data[j], b.data[n+j] = math.Inf(1), math.Inf(-1)
	}
	for i := 0; i < m; i++ {
		a.data[i*k+2] = math.Float64frombits(payloadNaN)
	}
	check := func(t *testing.T, what string, got []float64, simd bool) {
		t.Helper()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := uint64(payloadNaN)
				if simd && (i < m&^3 || j >= n&^7) {
					want = defaultNaN
				}
				if bits := math.Float64bits(got[i*n+j]); bits != want {
					t.Errorf("%s: element (%d, %d) is %#x, want %#x", what, i, j, bits, want)
				}
			}
		}
	}
	products := func(t *testing.T, simd bool) {
		check(t, "MatMul", a.MatMul(b).data, simd)
		check(t, "MatMulTA", a.Transpose2D().MatMulTAIn(nil, b).data, simd)
		check(t, "MatMulTB", a.MatMulTB(b.Transpose2D()).data, simd)
	}
	forEachTile(t, func(t *testing.T) { products(t, gemmSIMD) })
	t.Run("go", func(t *testing.T) { goFallback(func() { products(t, false) }) })
}
