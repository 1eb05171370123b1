//go:build gc

package optim

import (
	"math"
	"testing"

	"summitscale/internal/nn"
	"summitscale/internal/stats"
)

// specialGrads fills every gradient with normal values, one in sixteen
// of them +0, -0 or scaled by 1e6; the gradients of parameters whose
// index odd selects also get +Inf, -Inf or NaN in one element in four.
// The NaN is the one the hardware makes (0·Inf), so wherever two NaNs
// meet in an addition they carry the same payload: x86 keeps the first
// operand's payload, and the compiler may order a commutative Go
// addition either way.
func specialGrads(ps []nn.Param, seed uint64, odd bool) {
	rng := stats.NewRNG(seed)
	nan := 0 * math.Inf(1)
	for i, p := range ps {
		if p.Value.Grad == nil {
			continue
		}
		special := odd && i%2 == 1
		for j := range p.Value.Grad.Data() {
			g := rng.NormFloat64()
			switch r := rng.Intn(64); {
			case r < 4:
				g = 0
			case r < 8:
				g = math.Copysign(0, -1)
			case r < 12:
				g *= 1e6
			case special && r < 20:
				g = math.Inf(1 - 2*(j%2))
			case special && r < 28:
				g = nan
			}
			p.Value.Grad.Data()[j] = g
		}
	}
}

// TestLAMBKernelMatchesGoLoop: over four steps, the AVX2 passes leave
// every weight, moment and raw update bit-identical to the Go loop
// (lambSIMD switched off), on lengths 1–9 (no lanes below 4, every tail
// length above) and at train-wide's parameter sizes, with ±0, huge,
// ±Inf and NaN gradients. Only odd-indexed parameters get the
// non-finite values, so the even ones keep finite trust ratios.
func TestLAMBKernelMatchesGoLoop(t *testing.T) {
	if !lambSIMD {
		t.Skip("no AVX2 kernel on this host")
	}
	for name, sizes := range map[string][]int{
		"lengths-1-9": {1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9},
		"train-wide":  {64 * 256, 256, 256 * 256, 256, 256 * 256, 256, 256 * 256, 256, 256 * 256, 256, 256 * 2, 2},
	} {
		run := func(simd bool) [][]float64 {
			saved := lambSIMD
			lambSIMD = simd
			defer func() { lambSIMD = saved }()
			ps := lambParams(13, sizes)
			opt := NewLAMB(0.01)
			for step := 0; step < 4; step++ {
				specialGrads(ps, uint64(200+step), true)
				opt.Step(ps)
			}
			var out [][]float64
			for _, p := range ps {
				st := opt.state[p.Value.Data]
				out = append(out, p.Value.Data.Data(), st.m.Data(), st.v.Data(), st.u.Data())
			}
			return out
		}
		got, want := run(true), run(false)
		for i := range want {
			for j := range want[i] {
				g, w := got[i][j], want[i][j]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: parameter %d's %s, element %d: kernel %v (%#x), Go loop %v (%#x)",
						name, i/4, [4]string{"weight", "m", "v", "u"}[i%4], j,
						g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}
