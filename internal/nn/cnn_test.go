package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// sameBits fails t unless got and want hold the same float64 bit
// patterns, so -0 differs from +0 and every NaN must line up.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// spatialMajor lays an (N, F, OH, OW) gradient out as the (N*OH*OW, F)
// matrix whose rows line up with the unfold's.
func spatialMajor(g *tensor.Tensor) *tensor.Tensor {
	n, f, oh, ow := g.Dim(0), g.Dim(1), g.Dim(2), g.Dim(3)
	d := tensor.New(n*oh*ow, f)
	for img := 0; img < n; img++ {
		for ch := 0; ch < f; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					d.Set(g.At(img, ch, oy, ox), (img*oh+oy)*ow+ox, ch)
				}
			}
		}
	}
	return d
}

// TestConv2DAppliedTwiceGetsBothKernelGradients applies one layer twice
// in one graph before a single backward. Each application must take its
// kernel gradient against its own input, so dK must equal a reference
// that unfolds x and y1 afresh at backward time and sums the two products
// in backward order.
func TestConv2DAppliedTwiceGetsBothKernelGradients(t *testing.T) {
	rng := stats.NewRNG(59)
	const n, c, hw, k = 2, 3, 6, 3
	opts := tensor.Conv2DOpts{Stride: 1, Padding: 1}
	layer := NewConv2D(rng, c, c, k, opts, "shared")
	copy(layer.Bias.Data.Data(), tensor.Randn(rng, 1, c).Data())
	kern, bias := layer.Kernel.Data, layer.Bias.Data
	x := tensor.Randn(rng, 1, n, c, hw, hw)
	// The loss is sum(r * y2), so dY2 is r exactly.
	r := tensor.Randn(rng, 1, n, c, hw, hw)

	y1, _ := tensor.Conv2D(x, kern, bias, opts)
	dY2 := spatialMajor(r)
	dK2 := dY2.Transpose2D().MatMul(tensor.Im2Col(y1, k, k, opts))
	dY1 := tensor.Col2Im(dY2.MatMul(kern.Reshape(c, c*k*k)), n, c, hw, hw, k, k, opts)
	dK1 := spatialMajor(dY1).Transpose2D().MatMul(tensor.Im2Col(x, k, k, opts))
	wantK := dK2.AddInPlace(dK1).Data()
	wantB := dY2.SumAxis0().AddInPlace(spatialMajor(dY1).SumAxis0()).Data()

	for _, arena := range []*tensor.Arena{nil, tensor.NewArena()} {
		ZeroGrads(layer)
		y := layer.Forward(layer.Forward(autograd.ConstantIn(arena, x)))
		autograd.Sum(autograd.Mul(y, autograd.Constant(r))).Backward(nil)
		where := fmt.Sprintf("arena %v", arena != nil)
		sameBits(t, where+" dK", layer.Kernel.Grad.Data(), wantK)
		sameBits(t, where+" dBias", layer.Bias.Grad.Data(), wantB)
	}
}

// BenchmarkSmallCNNLayers times each layer op of train-cnn's SmallCNN
// (batch 8, 1x8x8 input, channels [8, 16]) in a warm arena: fwd runs the
// op's forward alone, fwdbwd its forward and backward. Each op cycles
// through the activations the model's forward feeds it for 32 seeded
// input batches, one per iteration, so the branch predictor cannot learn
// one input's data-dependent branches (ReLU, the max-pool argmax), as it
// cannot in training, where every batch is new. Every iteration resets
// the arena and copies its input into it, as a training step does with
// its batch.
func BenchmarkSmallCNNLayers(b *testing.B) {
	const inputs = 32
	rng := stats.NewRNG(61)
	m := NewSmallCNN(rng, SmallCNNConfig{InChannels: 1, ImageSize: 8, Channels: []int{8, 16}, Classes: 2})
	params := m.Params()
	type layerOp struct {
		name    string
		ins     []*tensor.Tensor // the op's input for each seeded batch
		forward func(*autograd.Value) *autograd.Value
	}
	var ops []layerOp
	hs := make([]*tensor.Tensor, inputs)
	for k := range hs {
		hs[k] = tensor.Randn(rng, 1, 8, 1, 8, 8)
	}
	add := func(name string, forward func(*autograd.Value) *autograd.Value) {
		ops = append(ops, layerOp{name, slices.Clone(hs), forward})
		for k, h := range hs {
			hs[k] = forward(autograd.Constant(h)).Data
		}
	}
	for i, conv := range m.Convs {
		add(fmt.Sprintf("conv%d", i), conv.Forward)
		add(fmt.Sprintf("bn%d", i), m.Norms[i].Forward)
		add(fmt.Sprintf("relu%d", i), autograd.ReLU)
		add(fmt.Sprintf("pool%d", i), func(v *autograd.Value) *autograd.Value {
			return autograd.MaxPool2D(v, m.PoolK, m.PoolK)
		})
	}
	add("avgpool", autograd.AvgPoolGlobal)
	add("head", m.Head.Forward)

	arena := tensor.NewArena()
	for i, op := range ops {
		next := 0
		input := func() *autograd.Value {
			arena.Reset()
			for _, p := range params {
				p.Value.ZeroGrad()
			}
			src := op.ins[next%inputs]
			next++
			in := tensor.NewIn(arena, src.Shape()...)
			copy(in.Data(), src.Data())
			return autograd.NewLeaf(in, i > 0)
		}
		b.Run(op.name, func(b *testing.B) {
			b.Run("fwd", warmLoop(func() { op.forward(input()) }))
			b.Run("fwdbwd", warmLoop(func() { op.forward(input()).Backward(nil) }))
		})
	}
}

// warmLoop benchmarks step after one untimed call has grown the arena to
// its high-water mark.
func warmLoop(step func()) func(*testing.B) {
	return func(b *testing.B) {
		step()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			step()
		}
	}
}
