package ddl

import (
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// BenchmarkTrainStepAlloc measures one full Rank.Step (forward, backward,
// optimizer; at one rank the gradients stay in place) of a conv
// classifier on a single-rank world, with allocation accounting;
// summit-bench holds the step to its allocation ceiling.
func BenchmarkTrainStepAlloc(b *testing.B) {
	b.Run("scratch", func(b *testing.B) {
		w := mp.NewWorld(1)
		w.Run(func(c *mp.Comm) {
			rng := stats.NewRNG(11)
			model := nn.NewSmallCNN(rng, nn.SmallCNNConfig{
				InChannels: 1, ImageSize: 8, Channels: []int{8, 16}, Classes: 4})
			rank := NewRank(c, model, &optim.SGD{Rate: 0.01, Momentum: 0.9, WeightDecay: 1e-4}, Config{})
			x := tensor.Randn(rng, 1, 8, 1, 8, 8)
			labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
			// ConstantIn routes the step's graph through the rank's arena.
			lossFn := func(int) *autograd.Value {
				return autograd.SoftmaxCrossEntropy(model.Forward(
					autograd.ConstantIn(rank.Arena(), x)), labels)
			}
			rank.Step(lossFn) // warm the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rank.Step(lossFn)
			}
		})
	})
}

// BenchmarkTrainStepPhases splits one step of perfbench's train-wide
// shape — one rank, a ResidualMLP 64 → 256 (2 blocks) → 2 trained with
// LAMB on MSE, batch 64, the graph in the rank arena — into phases: the
// forward pass and loss, the backward pass, the gradient exchange
// (flatten, allreduce, unflatten) and the optimizer; step is the whole
// Rank.Step for comparison. Each phase is timed alone, with the phases
// before it rerun untimed. At one rank Step hands the optimizer the
// gradients in place and runs no exchange, so flatten-allreduce times
// the pass a rank of a larger world (or one with a custom collective)
// still runs, not a part of step.
func BenchmarkTrainStepPhases(b *testing.B) {
	const batch, in, width, out, depth = 64, 64, 256, 2, 2
	w := mp.NewWorld(1)
	w.Run(func(c *mp.Comm) {
		rng := stats.NewRNG(21)
		model := nn.NewResidualMLP(rng, in, width, out, depth)
		opt := optim.NewLAMB(0.01)
		rank := NewRank(c, model, opt, Config{})
		params := model.Params()
		x := tensor.Randn(rng, 1, batch, in)
		y := tensor.Randn(rng, 1, batch, out)
		ar := rank.Arena()
		forward := func() *autograd.Value {
			ar.Reset()
			for _, p := range params {
				p.Value.ZeroGrad()
			}
			return autograd.MSE(model.Forward(autograd.ConstantIn(ar, x)), y)
		}
		var flat []float64
		exchange := func() {
			flat = FlattenGradsInto(flat, params)
			UnflattenGrads(params, c.AllReduceRing(flat))
		}
		lossFn := func(int) *autograd.Value {
			return autograd.MSE(model.Forward(autograd.ConstantIn(ar, x)), y)
		}
		rank.Step(lossFn) // warm the arena, the flat buffers and LAMB's state
		forward().Backward(nil)
		exchange()

		b.Run("forward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				forward()
			}
		})
		b.Run("backward", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				loss := forward()
				b.StartTimer()
				loss.Backward(nil)
			}
		})
		b.Run("flatten-allreduce", func(b *testing.B) {
			forward().Backward(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exchange()
			}
		})
		b.Run("optimizer", func(b *testing.B) {
			forward().Backward(nil)
			exchange()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Step(params)
			}
		})
		b.Run("step", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rank.Step(lossFn)
			}
		})
	})
}

// BenchmarkStepOverlap compares synchronous lagged allreduce against the
// pipelined variant on a two-rank world: overlap hides the collective
// behind the next step's backward pass, so its win grows with the ratio of
// communication to compute (modest here, where both ranks share one host).
func BenchmarkStepOverlap(b *testing.B) {
	run := func(overlap bool) func(b *testing.B) {
		return func(b *testing.B) {
			w := mp.NewWorld(2)
			w.Run(func(c *mp.Comm) {
				rng := stats.NewRNG(uint64(17 + c.Rank()))
				model := nn.NewSmallCNN(rng, nn.SmallCNNConfig{
					InChannels: 1, ImageSize: 8, Channels: []int{8, 16}, Classes: 4})
				rank := NewRank(c, model, optim.NewSGD(0.01),
					Config{GradLag: true, Overlap: overlap})
				x := tensor.Randn(rng, 1, 8, 1, 8, 8)
				labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
				lossFn := func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(model.Forward(
						autograd.ConstantIn(rank.Arena(), x)), labels)
				}
				rank.Step(lossFn) // warm scratch; ranks sync via the collective
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					rank.Step(lossFn)
				}
				rank.Flush()
			})
		}
	}
	b.Run("sync", run(false))
	b.Run("overlap", run(true))
}

// TestFlattenGradsIntoReusesBuffer pins the scratch semantics: a large
// enough buffer is reused in place, a small one is grown, and nil-gradient
// segments are zeroed even when the buffer holds stale data.
func TestFlattenGradsIntoReusesBuffer(t *testing.T) {
	rng := stats.NewRNG(1)
	model := nn.NewMLP(rng, []int{4, 8, 2}, autograd.Tanh)
	params := model.Params()
	n := 0
	for _, p := range params {
		n += p.Value.Data.Size()
	}

	// Accumulate real gradients.
	x := tensor.Randn(rng, 1, 3, 4)
	loss := autograd.SoftmaxCrossEntropy(model.Forward(autograd.Constant(x)), []int{0, 1, 0})
	loss.Backward(nil)

	buf := make([]float64, n)
	for i := range buf {
		buf[i] = 99 // stale garbage that must not survive
	}
	got := FlattenGradsInto(buf, params)
	if &got[0] != &buf[0] {
		t.Error("sufficient buffer was not reused")
	}
	want := FlattenGradsInto(nil, params)
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flat[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Now clear the gradients: stale buffer contents must be zeroed.
	nn.ZeroGrads(model)
	got = FlattenGradsInto(got, params)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("stale value %v at %d after ZeroGrads", v, i)
		}
	}

	// Undersized buffer grows.
	if small := FlattenGradsInto(make([]float64, 0, 1), params); len(small) != n {
		t.Fatalf("grown buffer has length %d, want %d", len(small), n)
	}
}

// seedSGDStep is the seed's momentum-SGD step: weight decay materialized
// two intermediate tensors per parameter.
func seedSGDStep(params []nn.Param, velocity map[*tensor.Tensor]*tensor.Tensor, rate, momentum, decay float64) {
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		g := p.Value.Grad
		w := p.Value.Data
		if decay != 0 {
			g = g.Add(w.Scale(decay))
		}
		v, ok := velocity[w]
		if !ok {
			v = tensor.New(w.Shape()...)
			velocity[w] = v
		}
		v.ScaleInPlace(momentum).AddInPlace(g)
		wd, gd := w.Data(), v.Data()
		for i := range wd {
			wd[i] -= rate * gd[i]
		}
	}
}

// TestFusedSGDMatchesSeedPath pins the fused decay+momentum loop in
// optim.SGD to the seed's tensor-materializing arithmetic bit for bit,
// including the floating-point grouping of the decay term.
func TestFusedSGDMatchesSeedPath(t *testing.T) {
	train := func(step func([]nn.Param)) []float64 {
		rng := stats.NewRNG(3)
		model := nn.NewMLP(rng, []int{5, 9, 3}, autograd.Tanh)
		x := tensor.Randn(stats.NewRNG(42), 1, 4, 5)
		labels := []int{0, 1, 2, 0}
		for i := 0; i < 6; i++ {
			nn.ZeroGrads(model)
			loss := autograd.SoftmaxCrossEntropy(model.Forward(autograd.Constant(x)), labels)
			loss.Backward(nil)
			step(model.Params())
		}
		return FlattenParams(model.Params())
	}
	opt := &optim.SGD{Rate: 0.05, Momentum: 0.9, WeightDecay: 1e-3}
	fused := train(opt.Step)
	velocity := map[*tensor.Tensor]*tensor.Tensor{}
	seed := train(func(ps []nn.Param) { seedSGDStep(ps, velocity, 0.05, 0.9, 1e-3) })
	if len(fused) == 0 || len(fused) != len(seed) {
		t.Fatalf("bad flatten lengths %d vs %d", len(fused), len(seed))
	}
	for i := range fused {
		if fused[i] != seed[i] {
			t.Fatalf("param %d diverged: %v vs %v", i, fused[i], seed[i])
		}
	}
}

// TestStepScratchMatchesAllocatingPath: Rank.Step — arena graph,
// persistent flat buffers, in-place ring — trains bit-identically to the
// allocating step it replaced, written out here: a heap graph, a fresh
// flattened gradient, the ring on a fresh copy, then unflatten and the
// optimizer.
func TestStepScratchMatchesAllocatingPath(t *testing.T) {
	const ranks, accum = 2, 2
	train := func(viaRank bool) []float64 {
		var flat []float64
		w := mp.NewWorld(ranks)
		w.Run(func(c *mp.Comm) {
			rng := stats.NewRNG(7)
			model := nn.NewMLP(rng, []int{6, 12, 3}, autograd.Tanh)
			opt := optim.NewMomentumSGD(0.05, 0.9)
			rank := NewRank(c, model, opt, Config{AccumSteps: accum})
			data := tensor.Randn(stats.NewRNG(uint64(100+c.Rank())), 1, 4, 6)
			labels := []int{0, 1, 2, 0}
			for step := 0; step < 5; step++ {
				if viaRank {
					rank.Step(func(int) *autograd.Value {
						return autograd.SoftmaxCrossEntropy(model.Forward(
							autograd.ConstantIn(rank.Arena(), data)), labels)
					})
					continue
				}
				params := model.Params()
				nn.ZeroGrads(model)
				for m := 0; m < accum; m++ {
					autograd.SoftmaxCrossEntropy(model.Forward(autograd.Constant(data)), labels).Backward(nil)
				}
				g := FlattenGradsInto(nil, params)
				for i := range g {
					g[i] *= 1 / float64(ranks*accum)
				}
				UnflattenGrads(params, c.AllReduceRing(append([]float64(nil), g...)))
				opt.Step(params)
			}
			if c.Rank() == 0 {
				flat = FlattenParams(model.Params())
			}
		})
		return flat
	}
	withScratch, without := train(true), train(false)
	if len(withScratch) == 0 || len(withScratch) != len(without) {
		t.Fatalf("bad flatten lengths %d vs %d", len(withScratch), len(without))
	}
	for i := range withScratch {
		if withScratch[i] != without[i] {
			t.Fatalf("param %d diverged: %v vs %v", i, withScratch[i], without[i])
		}
	}
}
