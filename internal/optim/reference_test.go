package optim

import (
	"fmt"
	"math"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/parallel"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// referenceLAMB is the element-sharded LAMB step LAMB.Step replaced: per
// parameter, one pool pass over element chunks for the moments and the raw
// update, the two trust-ratio norms serially on the caller, and a second
// pool pass for the apply.
type referenceLAMB struct {
	rate, beta1, beta2, eps, decay float64
	step                           int
	state                          map[*tensor.Tensor]*adamState
}

func (o *referenceLAMB) Step(pool *parallel.WorkerPool, params []nn.Param) {
	if o.state == nil {
		o.state = map[*tensor.Tensor]*adamState{}
	}
	o.step++
	bc1 := 1 - math.Pow(o.beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.beta2, float64(o.step))
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		w := p.Value.Data
		st, ok := o.state[w]
		if !ok {
			st = &adamState{m: tensor.New(w.Shape()...), v: tensor.New(w.Shape()...),
				u: tensor.New(w.Shape()...)}
			o.state[w] = st
		}
		wd, gd := w.Data(), p.Value.Grad.Data()
		md, vd, ud := st.m.Data(), st.v.Data(), st.u.Data()
		pool.RunRange(len(wd), optimShardGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				g := gd[i]
				md[i] = o.beta1*md[i] + (1-o.beta1)*g
				vd[i] = o.beta2*vd[i] + (1-o.beta2)*g*g
				ud[i] = md[i]/bc1/(math.Sqrt(vd[i]/bc2)+o.eps) + o.decay*wd[i]
			}
		})
		wNorm, uNorm := w.Norm(), st.u.Norm()
		ratio := 1.0
		if wNorm > 0 && uNorm > 0 {
			ratio = wNorm / uNorm
		}
		pool.RunRange(len(wd), optimShardGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				wd[i] -= o.rate * ratio * ud[i]
			}
		})
	}
}

// lambParams builds parameters of the given sizes with seeded weights;
// a negative size makes a parameter with no gradient.
func lambParams(seed uint64, sizes []int) []nn.Param {
	rng := stats.NewRNG(seed)
	ps := make([]nn.Param, len(sizes))
	for i, n := range sizes {
		grad := n > 0
		n = max(n, -n)
		v := autograd.NewLeaf(tensor.Randn(rng, 1, n), true)
		if grad {
			v.Grad = tensor.New(n)
		}
		ps[i] = nn.Param{Name: fmt.Sprint(i), Value: v}
	}
	return ps
}

// setGrads fills every gradient with step-dependent values, exact zeros
// and a few large ones included.
func setGrads(ps []nn.Param, seed uint64) {
	rng := stats.NewRNG(seed)
	for _, p := range ps {
		if p.Value.Grad == nil {
			continue
		}
		for i := range p.Value.Grad.Data() {
			g := rng.NormFloat64()
			switch rng.Intn(16) {
			case 0:
				g = 0
			case 1:
				g *= 1e6
			}
			p.Value.Grad.Data()[i] = g
		}
	}
}

// TestLAMBMatchesElementShardedReference: over several steps, LAMB's
// per-parameter fan-out leaves every weight bit-identical to the
// element-sharded reference, at pool widths 1, 2, 4 and 8, for a
// train-wide-like model, a model dominated by one parameter, one under
// optimShardMin (the inline path), and one with a gradient-free
// parameter.
func TestLAMBMatchesElementShardedReference(t *testing.T) {
	for name, sizes := range map[string][]int{
		"residual-mlp": {64 * 256, 256, 256 * 256, 256, 256 * 256, 256, 256 * 2, 2},
		"one-dominant": {70_001, 3, 17},
		"inline":       {1000, 10, 300},
		"nil-grad":     {40_000, -500, 9_000},
	} {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", name, w), func(t *testing.T) {
				pool := parallel.NewWorkerPool(w)
				defer pool.Close()
				got, want := lambParams(5, sizes), lambParams(5, sizes)
				opt := NewLAMB(0.01)
				ref := &referenceLAMB{rate: 0.01, beta1: 0.9, beta2: 0.999, eps: 1e-6, decay: 0.01}
				for step := 0; step < 4; step++ {
					setGrads(got, uint64(100+step))
					setGrads(want, uint64(100+step))
					opt.stepOn(pool, got)
					ref.Step(pool, want)
				}
				for i := range got {
					g, r := got[i].Value.Data.Data(), want[i].Value.Data.Data()
					for j := range r {
						if math.Float64bits(g[j]) != math.Float64bits(r[j]) {
							t.Fatalf("param %d element %d: %v, reference %v", i, j, g[j], r[j])
						}
					}
				}
			})
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestLAMBStepAllocatesNothing: once its state exists, a LAMB step that
// fans out over the pool allocates nothing.
func TestLAMBStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so the pool's recycled jobs are reallocated")
	}
	ps := lambParams(9, []int{256 * 256, 256, 256 * 256, 256})
	setGrads(ps, 1)
	opt := NewLAMB(0.01)
	opt.Step(ps)
	if got := testing.AllocsPerRun(10, func() { opt.Step(ps) }); got != 0 {
		t.Fatalf("LAMB.Step allocates %v times per step", got)
	}
}

// BenchmarkLAMBStep is one LAMB step over train-wide's parameters (a
// ResidualMLP 64 → 256 (2 blocks of two layers) → 2), fanned out over the
// shared pool as in training.
func BenchmarkLAMBStep(b *testing.B) {
	ps := lambParams(17, []int{64 * 256, 256, 256 * 256, 256, 256 * 256, 256,
		256 * 256, 256, 256 * 256, 256, 256 * 2, 2})
	setGrads(ps, 3)
	opt := NewLAMB(0.01)
	opt.Step(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(ps)
	}
}
