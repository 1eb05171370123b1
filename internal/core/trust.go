package core

import (
	"fmt"
	"strings"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
	"summitscale/internal/trust"
)

// trustExperiment demonstrates the §VI-A "AI/ML method needs" as working
// mechanisms: exact constraint satisfaction by final correction, OOD
// detection by calibrated reconstruction error, and input-gradient
// explanations.
func trustExperiment() Experiment {
	return Experiment{
		ID:         "V1",
		Title:      "§VI-A method needs — constraints, generalizability, explainability",
		PaperClaim: "constraints imposable exactly by final correction; OOD inputs detectable; models can show their work",
		Body: func(*Cache, *obs.Observer) Result {
			rng := stats.NewRNG(41)
			var b strings.Builder

			// 1. Constraint satisfaction: conserve row totals exactly.
			pred := tensor.Randn(rng, 1, 8, 5)
			totals := make([]float64, 8)
			for i := range totals {
				totals[i] = float64(i)
			}
			before := trust.ConstraintViolation(pred, totals)
			after := trust.ConstraintViolation(trust.EnforceSumConstraint(pred, totals), totals)
			fmt.Fprintf(&b, "conservation defect: %.3g before, %.3g after correction\n", before, after)

			// 2. OOD detection: calibrate on a 2-D manifold, test both sides.
			mk := func(seed uint64, n int) *tensor.Tensor {
				r := stats.NewRNG(seed)
				out := tensor.New(n, 6)
				b1 := []float64{1, 0.5, -0.3, 0.2, 0.8, -0.1}
				b2 := []float64{-0.2, 0.9, 0.4, -0.5, 0.1, 0.7}
				for i := 0; i < n; i++ {
					a, c := r.NormFloat64(), r.NormFloat64()
					for j := 0; j < 6; j++ {
						out.Set(a*b1[j]+c*b2[j]+r.NormFloat64()*0.05, i, j)
					}
				}
				return out
			}
			train := mk(42, 64)
			ae := nn.NewAutoencoder(stats.NewRNG(43), 6, []int{16}, 2)
			x := autograd.Constant(train)
			for step := 0; step < 400; step++ {
				nn.ZeroGrads(ae)
				loss := autograd.MSE(ae.Forward(x), train)
				loss.Backward(nil)
				for _, p := range ae.Params() {
					wd, gd := p.Value.Data.Data(), p.Value.Grad.Data()
					for i := range wd {
						wd[i] -= 0.05 * gd[i]
					}
				}
			}
			det := trust.Calibrate(ae, mk(44, 64), 0.95)
			countFlags := func(t *tensor.Tensor) int {
				n := 0
				for _, f := range det.Flag(t) {
					if f {
						n++
					}
				}
				return n
			}
			inFlags := countFlags(mk(45, 40))
			oodFlags := countFlags(tensor.Randn(stats.NewRNG(46), 2, 40, 6))
			fmt.Fprintf(&b, "OOD flags: %d/40 in-distribution, %d/40 off-manifold\n", inFlags, oodFlags)

			// 3. Explainability: saliency isolates the informative feature.
			probe := tensor.FromSlice([]float64{0.5, -1, 2, 0.3}, 1, 4)
			sal := trust.Saliency(probe, func(leaf *autograd.Value) *autograd.Value {
				w := autograd.Constant(tensor.FromSlice([]float64{0, 0, 3, 0}, 4, 1))
				return autograd.Sum(autograd.Square(autograd.MatMul(leaf, w)))
			})
			conc := trust.TopSalientFraction(sal, 1)
			fmt.Fprintf(&b, "saliency concentration on the single informative feature: %.2f\n", conc)

			return Result{
				Metrics: []Metric{
					{Name: "constraint defect after correction", Paper: 0, Measured: after, Tol: 1e-9},
					{Name: "OOD detection separates (1=yes)", Paper: 1,
						Measured: boolMetric(oodFlags > 30 && inFlags < 10), Tol: 1e-9},
					{Name: "saliency isolates informative input (1=yes)", Paper: 1,
						Measured: boolMetric(conc == 1), Tol: 1e-9},
				},
				Detail: b.String(),
			}
		},
	}
}
