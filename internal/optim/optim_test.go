package optim

import (
	"math"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/tensor"
)

// quadratic builds a single-parameter problem loss = mean((w - target)^2)
// and returns the parameter and a loss closure.
func quadratic(target *tensor.Tensor) (nn.Param, func() *autograd.Value) {
	w := autograd.NewLeaf(tensor.New(target.Shape()...), true)
	p := nn.Param{Name: "w", Value: w}
	return p, func() *autograd.Value {
		return autograd.MSE(w, target)
	}
}

func runOpt(t *testing.T, opt Optimizer, steps int, lossTol float64) {
	t.Helper()
	target := tensor.FromSlice([]float64{1, -2, 3, 0.5}, 4)
	p, loss := quadratic(target)
	var last float64
	for i := 0; i < steps; i++ {
		p.Value.ZeroGrad()
		l := loss()
		l.Backward(nil)
		opt.Step([]nn.Param{p})
		last = l.Data.At(0)
	}
	if last > lossTol {
		t.Fatalf("%T final loss = %v, want < %v", opt, last, lossTol)
	}
}

func TestSGDConverges(t *testing.T)      { runOpt(t, NewSGD(0.3), 200, 1e-6) }
func TestMomentumConverges(t *testing.T) { runOpt(t, NewMomentumSGD(0.1, 0.9), 200, 1e-6) }
func TestAdamConverges(t *testing.T)     { runOpt(t, NewAdam(0.1), 400, 1e-4) }
func TestLAMBConverges(t *testing.T)     { runOpt(t, NewLAMB(0.05), 600, 1e-2) }

func TestLARSConverges(t *testing.T) {
	// LARS normalizes by weight norm; start from nonzero weights.
	target := tensor.FromSlice([]float64{1, -2, 3, 0.5}, 4)
	w := autograd.NewLeaf(tensor.FromSlice([]float64{2, 1, -1, 1}, 4), true)
	p := nn.Param{Name: "w", Value: w}
	opt := NewLARS(20) // LARS effective step is trust*lr-scaled
	var last float64
	for i := 0; i < 2000; i++ {
		p.Value.ZeroGrad()
		l := autograd.MSE(w, target)
		l.Backward(nil)
		opt.Step([]nn.Param{p})
		last = l.Data.At(0)
	}
	if last > 1e-2 {
		t.Fatalf("LARS final loss = %v", last)
	}
}

func TestSGDWithWeightDecayShrinksWeights(t *testing.T) {
	w := autograd.NewLeaf(tensor.FromSlice([]float64{10}, 1), true)
	p := nn.Param{Name: "w", Value: w}
	opt := &SGD{Rate: 0.1, WeightDecay: 0.5}
	for i := 0; i < 100; i++ {
		// Zero data gradient: only decay acts.
		p.Value.Grad = tensor.New(1)
		opt.Step([]nn.Param{p})
	}
	if got := math.Abs(w.Data.At(0)); got > 0.1 {
		t.Fatalf("weight decay left |w| = %v", got)
	}
}

func TestNilGradSkipped(t *testing.T) {
	w := autograd.NewLeaf(tensor.FromSlice([]float64{5}, 1), true)
	p := nn.Param{Name: "w", Value: w}
	for _, opt := range []Optimizer{NewSGD(0.1), NewAdam(0.1), NewLARS(0.1), NewLAMB(0.1)} {
		opt.Step([]nn.Param{p})
		if w.Data.At(0) != 5 {
			t.Fatalf("%T updated a parameter with nil grad", opt)
		}
	}
}

func TestLARCClip(t *testing.T) {
	w := autograd.NewLeaf(tensor.FromSlice([]float64{1, 0}, 2), true) // ||w|| = 1
	w.Grad = tensor.FromSlice([]float64{100, 0}, 2)                   // ||g|| = 100
	// localLR = trust*1/100 = 0.001*trust; with lr=0.1 and trust=1 ->
	// localLR=0.01 < lr so grad is scaled by 0.1.
	LARCClip([]nn.Param{{Name: "w", Value: w}}, 0.1, 1)
	if got := w.Grad.At(0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("LARC-clipped grad = %v, want 10", got)
	}
	// When localLR >= lr nothing happens.
	w.Grad = tensor.FromSlice([]float64{0.001, 0}, 2)
	LARCClip([]nn.Param{{Name: "w", Value: w}}, 0.1, 1)
	if got := w.Grad.At(0); got != 0.001 {
		t.Fatalf("LARC modified a small gradient: %v", got)
	}
}

func TestLAMBTrustRatioBoundsUpdate(t *testing.T) {
	// With huge gradients, LAMB's update magnitude is governed by ||w||, not
	// ||g|| — the property that stabilizes large-batch training.
	w := autograd.NewLeaf(tensor.FromSlice([]float64{1, 1}, 2), true)
	w.Grad = tensor.FromSlice([]float64{1e6, 1e6}, 2)
	before := w.Data.Clone()
	opt := NewLAMB(0.1)
	opt.Step([]nn.Param{{Name: "w", Value: w}})
	delta := w.Data.Sub(before).Norm()
	// ratio = ||w||/||update|| so step size ~= lr*||w||.
	if delta > 0.3 {
		t.Fatalf("LAMB step with huge grads moved weights by %v", delta)
	}
	if delta == 0 {
		t.Fatal("LAMB did not move weights at all")
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction the very first Adam step is ~lr regardless of
	// gradient magnitude.
	w := autograd.NewLeaf(tensor.FromSlice([]float64{0}, 1), true)
	w.Grad = tensor.FromSlice([]float64{1e-3}, 1)
	opt := NewAdam(0.1)
	opt.Step([]nn.Param{{Name: "w", Value: w}})
	if got := math.Abs(w.Data.At(0)); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("first Adam step = %v, want ~0.1", got)
	}
}
