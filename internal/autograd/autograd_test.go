package autograd

import (
	"math"
	"runtime"
	"testing"

	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

const gradTol = 1e-6

func leaf(rng *stats.RNG, sd float64, shape ...int) *Value {
	return NewLeaf(tensor.Randn(rng, sd, shape...), true)
}

func TestAddBackward(t *testing.T) {
	rng := stats.NewRNG(1)
	a, b := leaf(rng, 1, 3, 4), leaf(rng, 1, 3, 4)
	if w := GradCheck(func() *Value { return Sum(Add(a, b)) }, []*Value{a, b}, 1e-6); w > gradTol {
		t.Fatalf("Add gradcheck error %v", w)
	}
}

func TestSubMulBackward(t *testing.T) {
	rng := stats.NewRNG(2)
	a, b := leaf(rng, 1, 2, 5), leaf(rng, 1, 2, 5)
	if w := GradCheck(func() *Value { return Sum(Mul(Sub(a, b), a)) }, []*Value{a, b}, 1e-6); w > gradTol {
		t.Fatalf("Sub/Mul gradcheck error %v", w)
	}
}

func TestMatMulBackward(t *testing.T) {
	rng := stats.NewRNG(3)
	a, b := leaf(rng, 1, 4, 3), leaf(rng, 1, 3, 5)
	if w := GradCheck(func() *Value { return Sum(MatMul(a, b)) }, []*Value{a, b}, 1e-6); w > gradTol {
		t.Fatalf("MatMul gradcheck error %v", w)
	}
}

func TestAddRowBackward(t *testing.T) {
	rng := stats.NewRNG(4)
	a, row := leaf(rng, 1, 4, 3), leaf(rng, 1, 3)
	if w := GradCheck(func() *Value { return Sum(Square(AddRow(a, row))) }, []*Value{a, row}, 1e-6); w > gradTol {
		t.Fatalf("AddRow gradcheck error %v", w)
	}
}

func TestActivationsBackward(t *testing.T) {
	rng := stats.NewRNG(5)
	for name, act := range map[string]func(*Value) *Value{
		"tanh":    Tanh,
		"sigmoid": Sigmoid,
		"gelu":    GELU,
		"exp":     Exp,
		"softmax": Softmax,
	} {
		a := leaf(rng, 0.8, 3, 4)
		if w := GradCheck(func() *Value { return Sum(act(a)) }, []*Value{a}, 1e-6); w > 1e-5 {
			t.Errorf("%s gradcheck error %v", name, w)
		}
	}
}

func TestReLUBackward(t *testing.T) {
	// Keep values away from the kink so finite differences are valid.
	a := NewLeaf(tensor.FromSlice([]float64{1.5, -2, 0.7, -0.3, 2.2, -1.1}, 2, 3), true)
	if w := GradCheck(func() *Value { return Sum(Square(ReLU(a))) }, []*Value{a}, 1e-6); w > gradTol {
		t.Fatalf("ReLU gradcheck error %v", w)
	}
}

func TestMeanBackward(t *testing.T) {
	rng := stats.NewRNG(6)
	a := leaf(rng, 1, 5, 2)
	if w := GradCheck(func() *Value { return Mean(Square(a)) }, []*Value{a}, 1e-6); w > gradTol {
		t.Fatalf("Mean gradcheck error %v", w)
	}
}

func TestReshapeBackward(t *testing.T) {
	rng := stats.NewRNG(7)
	a := leaf(rng, 1, 2, 6)
	b := leaf(rng, 1, 4, 3)
	f := func() *Value { return Sum(MatMul(Reshape(a, 3, 4), b)) }
	if w := GradCheck(f, []*Value{a, b}, 1e-6); w > gradTol {
		t.Fatalf("Reshape gradcheck error %v", w)
	}
}

func TestSoftmaxCrossEntropyBackward(t *testing.T) {
	rng := stats.NewRNG(8)
	logits := leaf(rng, 1, 4, 3)
	labels := []int{0, 2, 1, 2}
	f := func() *Value { return SoftmaxCrossEntropy(logits, labels) }
	if w := GradCheck(f, []*Value{logits}, 1e-6); w > gradTol {
		t.Fatalf("SoftmaxCrossEntropy gradcheck error %v", w)
	}
}

func TestSoftmaxCrossEntropyValue(t *testing.T) {
	// Uniform logits over C classes must give loss log(C).
	logits := NewLeaf(tensor.New(2, 4), true)
	loss := SoftmaxCrossEntropy(logits, []int{1, 3})
	if got, want := loss.Data.At(0), math.Log(4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("uniform CE = %v, want %v", got, want)
	}
}

func TestMSEBackward(t *testing.T) {
	rng := stats.NewRNG(9)
	pred := leaf(rng, 1, 3, 2)
	target := tensor.Randn(stats.NewRNG(10), 1, 3, 2)
	f := func() *Value { return MSE(pred, target) }
	if w := GradCheck(f, []*Value{pred}, 1e-6); w > gradTol {
		t.Fatalf("MSE gradcheck error %v", w)
	}
}

func TestMSEValue(t *testing.T) {
	pred := NewLeaf(tensor.FromSlice([]float64{1, 2}, 2), true)
	target := tensor.FromSlice([]float64{0, 4}, 2)
	loss := MSE(pred, target)
	if got := loss.Data.At(0); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("MSE = %v, want 2.5", got)
	}
}

func TestConv2DBackward(t *testing.T) {
	rng := stats.NewRNG(11)
	x := leaf(rng, 1, 2, 2, 5, 5)
	k := leaf(rng, 1, 3, 2, 3, 3)
	b := leaf(rng, 1, 3)
	opts := tensor.Conv2DOpts{Stride: 2, Padding: 1}
	f := func() *Value { return Sum(Square(Conv2D(x, k, b, opts))) }
	if w := GradCheck(f, []*Value{x, k, b}, 1e-5); w > 1e-5 {
		t.Fatalf("Conv2D gradcheck error %v", w)
	}
}

func TestMaxPoolBackward(t *testing.T) {
	rng := stats.NewRNG(12)
	x := leaf(rng, 1, 1, 2, 6, 6)
	f := func() *Value { return Sum(Square(MaxPool2D(x, 2, 2))) }
	if w := GradCheck(f, []*Value{x}, 1e-6); w > 1e-5 {
		t.Fatalf("MaxPool gradcheck error %v", w)
	}
}

func TestAvgPoolGlobalBackward(t *testing.T) {
	rng := stats.NewRNG(13)
	x := leaf(rng, 1, 2, 3, 4, 4)
	f := func() *Value { return Sum(Square(AvgPoolGlobal(x))) }
	if w := GradCheck(f, []*Value{x}, 1e-6); w > gradTol {
		t.Fatalf("AvgPoolGlobal gradcheck error %v", w)
	}
}

func TestLayerNormBackward(t *testing.T) {
	rng := stats.NewRNG(14)
	x := leaf(rng, 1, 3, 6)
	g := NewLeaf(tensor.Uniform(rng, 0.5, 1.5, 6), true)
	s := leaf(rng, 0.5, 6)
	f := func() *Value { return Sum(Square(LayerNorm(x, g, s, 1e-5))) }
	if w := GradCheck(f, []*Value{x, g, s}, 1e-5); w > 1e-4 {
		t.Fatalf("LayerNorm gradcheck error %v", w)
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := stats.NewRNG(15)
	x := leaf(rng, 3, 4, 8)
	g := NewLeaf(tensor.Full(1, 8), false)
	s := NewLeaf(tensor.New(8), false)
	out := LayerNorm(x, g, s, 1e-8)
	for i := 0; i < 4; i++ {
		row := out.Data.Slice2DRows(i, i+1)
		if m := row.Mean(); math.Abs(m) > 1e-8 {
			t.Fatalf("row %d mean %v", i, m)
		}
		sd := math.Sqrt(row.Mul(row).Mean())
		if math.Abs(sd-1) > 1e-4 {
			t.Fatalf("row %d sd %v", i, sd)
		}
	}
}

func TestBatchNorm2DBackward(t *testing.T) {
	rng := stats.NewRNG(16)
	x := leaf(rng, 1, 2, 3, 3, 3)
	g := NewLeaf(tensor.Uniform(rng, 0.5, 1.5, 3), true)
	s := leaf(rng, 0.5, 3)
	f := func() *Value { return Sum(Square(BatchNorm2D(x, g, s, 1e-5))) }
	if w := GradCheck(f, []*Value{x, g, s}, 1e-5); w > 1e-4 {
		t.Fatalf("BatchNorm2D gradcheck error %v", w)
	}
}

func TestEmbeddingBackward(t *testing.T) {
	rng := stats.NewRNG(17)
	table := leaf(rng, 1, 5, 4)
	ids := []int{0, 3, 3, 1}
	f := func() *Value { return Sum(Square(EmbeddingLookup(table, ids))) }
	if w := GradCheck(f, []*Value{table}, 1e-6); w > gradTol {
		t.Fatalf("Embedding gradcheck error %v", w)
	}
}

func TestEmbeddingRepeatedIDsAccumulate(t *testing.T) {
	table := NewLeaf(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2), true)
	out := EmbeddingLookup(table, []int{1, 1})
	out.Backward(tensor.Full(1, 2, 2))
	// Row 1 used twice: gradient 2 per element; row 0 unused: 0.
	want := tensor.FromSlice([]float64{0, 0, 2, 2}, 2, 2)
	if !table.Grad.Equal(want, 1e-12) {
		t.Fatalf("embedding grad = %v", table.Grad)
	}
}

func TestSharedParameterAccumulates(t *testing.T) {
	// y = a*a summed: dy/da = 2a, exercising gradient accumulation when the
	// same leaf appears twice in the graph.
	a := NewLeaf(tensor.FromSlice([]float64{3}, 1), true)
	out := Sum(Mul(a, a))
	out.Backward(nil)
	if got := a.Grad.At(0); math.Abs(got-6) > 1e-12 {
		t.Fatalf("shared-leaf grad = %v, want 6", got)
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	c := Constant(tensor.FromSlice([]float64{2}, 1))
	a := NewLeaf(tensor.FromSlice([]float64{3}, 1), true)
	out := Sum(Mul(a, c))
	out.Backward(nil)
	if c.Grad != nil {
		t.Fatal("constant accumulated a gradient")
	}
	if a.Grad.At(0) != 2 {
		t.Fatalf("grad through constant = %v", a.Grad.At(0))
	}
}

func TestBackwardSeedShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a := NewLeaf(tensor.New(2, 2), true)
	Sum(a).Backward(tensor.New(2))
}

// backwardAlloc runs one Backward from out and returns the bytes it
// allocated on the heap.
func backwardAlloc(out *Value) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out.Backward(nil)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMatMulBackwardSkipsConstantOperand: with a constant left operand,
// the backward builds dW = xᵀ·dY, reading x in place, and nothing for x,
// so it allocates no x-sized temporary: neither a transpose of x nor a
// discarded dX = dY·Wᵀ. W's gradient must equal the one built beside dX.
func TestMatMulBackwardSkipsConstantOperand(t *testing.T) {
	rng := stats.NewRNG(23)
	const n, in, out = 64, 1024, 8
	xt := tensor.Randn(rng, 1, n, in)
	wt := tensor.Randn(rng, 1, in, out)
	xBytes := uint64(8 * n * in)

	w := NewLeaf(wt, true)
	got := backwardAlloc(Sum(MatMul(Constant(xt), w)))
	if limit := xBytes / 2; got >= limit {
		t.Fatalf("Backward allocated %d B with a constant x, want < %d (no %d B transpose of x, no dX)",
			got, limit, xBytes)
	}

	w2 := NewLeaf(wt, true)
	Sum(MatMul(NewLeaf(xt, true), w2)).Backward(nil)
	if !w.Grad.Equal(w2.Grad, 0) {
		t.Fatal("dW changed when dX was skipped")
	}
}

// TestConv2DBackwardSkipsConstantInput: a conv over a constant input
// builds dK and dBias but no dcols and no Col2Im fold, and it reuses the
// forward's unfold instead of unfolding again. Each of those would
// allocate at least one unfold matrix, so the whole backward must
// allocate less than one.
func TestConv2DBackwardSkipsConstantInput(t *testing.T) {
	rng := stats.NewRNG(29)
	const nImg, c, hw, f = 8, 16, 16, 2
	xt := tensor.Randn(rng, 1, nImg, c, hw, hw)
	kt := tensor.Randn(rng, 1, f, c, 3, 3)
	colsBytes := uint64(8 * nImg * hw * hw * c * 9)
	opts := tensor.Conv2DOpts{Stride: 1, Padding: 1}

	k := NewLeaf(kt, true)
	b := NewLeaf(tensor.New(f), true)
	if got := backwardAlloc(Sum(Conv2D(Constant(xt), k, b, opts))); got >= colsBytes {
		t.Fatalf("Backward allocated %d B with a constant input, want < %d (one unfold matrix)", got, colsBytes)
	}

	k2 := NewLeaf(kt, true)
	b2 := NewLeaf(tensor.New(f), true)
	Sum(Conv2D(NewLeaf(xt, true), k2, b2, opts)).Backward(nil)
	if !k.Grad.Equal(k2.Grad, 0) || !b.Grad.Equal(b2.Grad, 0) {
		t.Fatal("dK or dBias changed when dX was skipped")
	}
}
