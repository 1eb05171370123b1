package tensor_test

import (
	"math"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// poisonCase is one model's training step on an arena: it returns the
// model output, the loss and every parameter gradient, copied to the heap.
type poisonCase struct {
	name string
	step func(a *tensor.Arena) [][]float64
}

func snapshot(out, loss *autograd.Value, params []nn.Param) [][]float64 {
	got := [][]float64{append([]float64(nil), out.Data.Data()...), append([]float64(nil), loss.Data.Data()...)}
	for _, p := range params {
		got = append(got, append([]float64(nil), p.Value.Grad.Data()...))
	}
	return got
}

func poisonCases() []poisonCase {
	rng := stats.NewRNG(81)
	mlp := nn.NewResidualMLP(rng, 64, 256, 2, 2)
	x := tensor.Randn(rng, 1, 64, 64)
	y := tensor.Randn(rng, 1, 64, 2)
	cnn := nn.NewSmallCNN(rng, nn.SmallCNNConfig{InChannels: 1, ImageSize: 8, Channels: []int{8, 16}, Classes: 4})
	img := tensor.Randn(rng, 1, 8, 1, 8, 8)
	labels := []int{0, 1, 2, 3, 3, 2, 1, 0}
	block := nn.NewTransformerBlock(rng, 16, 2, 32, "block")
	seq := tensor.Randn(rng, 1, 12, 16)
	target := tensor.Randn(rng, 1, 12, 16)
	return []poisonCase{
		{"residual-mlp", func(a *tensor.Arena) [][]float64 {
			nn.ZeroGrads(mlp)
			out := mlp.Forward(autograd.ConstantIn(a, x))
			loss := autograd.MSE(out, y)
			loss.Backward(nil)
			return snapshot(out, loss, mlp.Params())
		}},
		{"small-cnn", func(a *tensor.Arena) [][]float64 {
			nn.ZeroGrads(cnn)
			out := cnn.Forward(autograd.ConstantIn(a, img))
			loss := autograd.SoftmaxCrossEntropy(out, labels)
			loss.Backward(nil)
			return snapshot(out, loss, cnn.Params())
		}},
		// LayerNorm, attention's Softmax and the GELU feed-forward.
		{"transformer-block", func(a *tensor.Arena) [][]float64 {
			nn.ZeroGrads(block)
			out := block.Forward(autograd.ConstantIn(a, seq))
			loss := autograd.MSE(out, target)
			loss.Backward(nil)
			return snapshot(out, loss, block.Params())
		}},
	}
}

// TestArenaPoisonedStepMatchesFresh: a training step on an arena whose
// recycled memory was filled with NaN gives every output, loss and
// gradient bit-identical to the same step on a fresh arena. Operations
// that skip the zero-fill must write every element they later read.
func TestArenaPoisonedStepMatchesFresh(t *testing.T) {
	for _, tc := range poisonCases() {
		want := tc.step(tensor.NewArena())
		ar := tensor.NewArena()
		tc.step(ar)
		capBefore := ar.Cap()
		ar.Reset()
		tensor.PoisonArena(ar, math.NaN())
		got := tc.step(ar)
		if ar.Cap() != capBefore {
			t.Errorf("%s: arena grew from %d to %d floats, so the step did not reuse the poisoned slabs", tc.name, capBefore, ar.Cap())
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d tensors, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s: tensor %d element %d: %v on a poisoned arena, %v on a fresh one",
						tc.name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
