package ddl

import (
	"math"
	"sync"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/data"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// buildModel constructs the identical MLP on every caller (same seed).
func buildModel() *nn.Sequential {
	return nn.NewMLP(stats.NewRNG(42), []int{4, 8, 3}, autograd.Tanh)
}

// globalBatch is a fixed dataset of 8 four-feature samples in 3 classes.
func globalBatch() (*tensor.Tensor, []int) {
	rng := stats.NewRNG(7)
	x := tensor.Randn(rng, 1, 8, 4)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	return x, labels
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	m := buildModel()
	// Give parameters distinct gradients.
	i := 0.0
	for _, p := range m.Params() {
		p.Value.Grad = tensor.Full(i+1, p.Value.Data.Shape()...)
		i++
	}
	flat := FlattenGradsInto(nil, m.Params())
	n := nn.ParamCount(m)
	if len(flat) != n {
		t.Fatalf("flat length %d, want %d", len(flat), n)
	}
	m2 := buildModel()
	UnflattenGrads(m2.Params(), flat)
	flat2 := FlattenGradsInto(nil, m2.Params())
	for i := range flat {
		if flat[i] != flat2[i] {
			t.Fatal("roundtrip mismatch")
		}
	}
}

func TestFlattenGradsNilAsZero(t *testing.T) {
	m := buildModel()
	flat := FlattenGradsInto(nil, m.Params())
	for _, v := range flat {
		if v != 0 {
			t.Fatal("nil grads must flatten to zeros")
		}
	}
}

// trainSerial trains one model on the full batch for `steps` SGD steps and
// returns the flattened parameters.
func trainSerial(steps int, lr float64) []float64 {
	m := buildModel()
	x, labels := globalBatch()
	opt := optim.NewSGD(lr)
	for s := 0; s < steps; s++ {
		nn.ZeroGrads(m)
		loss := autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels)
		loss.Backward(nil)
		opt.Step(m.Params())
	}
	return FlattenParams(m.Params())
}

// TestDataParallelMatchesSerial is the central correctness property of
// synchronous data parallelism: P ranks averaging gradients over equal
// shards reproduce single-process whole-batch training bit-for-bit (up to
// float associativity).
func TestDataParallelMatchesSerial(t *testing.T) {
	const steps, lr = 5, 0.2
	want := trainSerial(steps, lr)
	for _, p := range []int{1, 2, 4, 8} {
		x, labels := globalBatch()
		per := 8 / p
		w := mp.NewWorld(p)
		results := make([][]float64, p)
		w.Run(func(c *mp.Comm) {
			m := buildModel()
			r := NewRank(c, m, optim.NewSGD(lr), Config{})
			lo := c.Rank() * per
			shardX := x.Slice2DRows(lo, lo+per)
			shardY := labels[lo : lo+per]
			for s := 0; s < steps; s++ {
				r.Step(func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(shardX)), shardY)
				})
			}
			results[c.Rank()] = FlattenParams(m.Params())
		})
		for rk, got := range results {
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("p=%d rank=%d param %d: %v vs serial %v", p, rk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGradAccumulationMatchesLargeBatch: accumulating K micro-batches must
// equal one K-times-larger batch.
func TestGradAccumulationMatchesLargeBatch(t *testing.T) {
	const steps, lr = 4, 0.2
	want := trainSerial(steps, lr)

	x, labels := globalBatch()
	w := mp.NewWorld(1)
	var got []float64
	w.Run(func(c *mp.Comm) {
		m := buildModel()
		r := NewRank(c, m, optim.NewSGD(lr), Config{AccumSteps: 4})
		for s := 0; s < steps; s++ {
			r.Step(func(micro int) *autograd.Value {
				lo := micro * 2
				return autograd.SoftmaxCrossEntropy(
					m.Forward(autograd.Constant(x.Slice2DRows(lo, lo+2))), labels[lo:lo+2])
			})
		}
		got = FlattenParams(m.Params())
	})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("param %d: accum %v vs serial %v", i, got[i], want[i])
		}
	}
}

func TestReplicasStayConsistent(t *testing.T) {
	x, labels := globalBatch()
	for _, cfg := range []Config{
		{},
		{Compression: FP16},
		{AccumSteps: 2},
		{GradLag: true},
		{Allreduce: func(c *mp.Comm, g []float64) []float64 { return c.AllReduceTree(g) }},
	} {
		p := 4
		w := mp.NewWorld(p)
		consistent := true
		var mu sync.Mutex
		w.Run(func(c *mp.Comm) {
			m := buildModel()
			r := NewRank(c, m, optim.NewMomentumSGD(0.1, 0.9), cfg)
			lo := c.Rank() * 2
			for s := 0; s < 6; s++ {
				r.Step(func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(
						m.Forward(autograd.Constant(x.Slice2DRows(lo, lo+2))), labels[lo:lo+2])
				})
			}
			ok := ReplicasConsistent(c, m, 1e-12)
			mu.Lock()
			consistent = consistent && ok
			mu.Unlock()
		})
		if !consistent {
			t.Fatalf("replicas diverged under config %+v", cfg)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	x, labels := globalBatch()
	for _, cfg := range []Config{{}, {Compression: FP16}, {GradLag: true}} {
		p := 2
		w := mp.NewWorld(p)
		var first, last float64
		w.Run(func(c *mp.Comm) {
			m := buildModel()
			r := NewRank(c, m, optim.NewSGD(0.3), cfg)
			lo := c.Rank() * 4
			for s := 0; s < 40; s++ {
				l := r.Step(func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(
						m.Forward(autograd.Constant(x.Slice2DRows(lo, lo+4))), labels[lo:lo+4])
				})
				if c.Rank() == 0 {
					if s == 0 {
						first = l
					}
					last = l
				}
			}
		})
		if last >= first {
			t.Fatalf("config %+v: loss %v -> %v", cfg, first, last)
		}
	}
}

func TestGradLagDelaysFirstUpdate(t *testing.T) {
	x, labels := globalBatch()
	w := mp.NewWorld(1)
	w.Run(func(c *mp.Comm) {
		m := buildModel()
		before := FlattenParams(m.Params())
		r := NewRank(c, m, optim.NewSGD(0.5), Config{GradLag: true})
		step := func() {
			r.Step(func(int) *autograd.Value {
				return autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels)
			})
		}
		step()
		after1 := FlattenParams(m.Params())
		for i := range before {
			if before[i] != after1[i] {
				t.Fatal("grad-lag step 0 modified parameters")
			}
		}
		step()
		after2 := FlattenParams(m.Params())
		moved := false
		for i := range before {
			if before[i] != after2[i] {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatal("grad-lag step 1 did not apply the lagged gradient")
		}
	})
}

func TestFP16CompressionBoundsError(t *testing.T) {
	// Compressed allreduce result must be within fp16 quantization error of
	// the exact average.
	x, labels := globalBatch()
	p := 2
	w := mp.NewWorld(p)
	w.Run(func(c *mp.Comm) {
		m := buildModel()
		nn.ZeroGrads(m)
		lo := c.Rank() * 4
		loss := autograd.SoftmaxCrossEntropy(
			m.Forward(autograd.Constant(x.Slice2DRows(lo, lo+4))), labels[lo:lo+4])
		loss.Backward(nil)
		flat := FlattenGradsInto(nil, m.Params())
		for i := range flat {
			flat[i] /= float64(p)
		}
		// The ring reduces in place, so every summand is built from flat
		// before flat itself is reduced.
		comp := make([]float64, len(flat))
		for i := range flat {
			comp[i] = float64(toFP16(float32(flat[i])))
		}
		// Each rank's summand carries up to ~2^-11 relative quantization
		// error; the error of the sum is bounded by the sum of summand
		// magnitudes (cancellation can blow up the *relative* error of the
		// result, so bound absolutely).
		abs := make([]float64, len(flat))
		for i := range flat {
			abs[i] = math.Abs(flat[i])
		}
		exact := c.AllReduceRing(flat)
		reduced := c.AllReduceRing(comp)
		magSum := c.AllReduceRing(abs)
		for i := range exact {
			tol := magSum[i]*math.Pow(2, -10) + 1e-7
			if math.Abs(reduced[i]-exact[i]) > tol {
				t.Errorf("fp16 allreduce error at %d: %v vs %v", i, reduced[i], exact[i])
			}
		}
	})
}

// TestShardedEpochTraining exercises the full input pipeline: sharded,
// shuffled synthetic images feeding a distributed CNN for one epoch.
func TestShardedEpochTraining(t *testing.T) {
	src := data.NewClimateImages(11, 32, 1, 8)
	p := 4
	w := mp.NewWorld(p)
	var finalLoss float64
	w.Run(func(c *mp.Comm) {
		m := nn.NewSmallCNN(stats.NewRNG(3), nn.SmallCNNConfig{
			InChannels: 1, ImageSize: 8, Channels: []int{4}, Classes: 2,
		})
		r := NewRank(c, m, optim.NewMomentumSGD(0.05, 0.9), Config{})
		var loss float64
		for epoch := 0; epoch < 20; epoch++ {
			idx := data.ShardedEpoch(5, epoch, src.Len(), p, c.Rank())
			for _, batch := range data.Batches(idx, 4) {
				x, labels := data.BatchImages(src, batch)
				loss = r.Step(func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels)
				})
			}
		}
		if c.Rank() == 0 {
			finalLoss = loss
		}
		if !ReplicasConsistent(c, m, 1e-10) {
			t.Error("replicas diverged")
		}
	})
	if finalLoss > 0.5 {
		t.Fatalf("distributed CNN final loss = %v", finalLoss)
	}
}

func BenchmarkDataParallelStep4Ranks(b *testing.B) {
	x, labels := globalBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mp.NewWorld(4)
		w.Run(func(c *mp.Comm) {
			m := buildModel()
			r := NewRank(c, m, optim.NewSGD(0.1), Config{})
			lo := c.Rank() * 2
			r.Step(func(int) *autograd.Value {
				return autograd.SoftmaxCrossEntropy(
					m.Forward(autograd.Constant(x.Slice2DRows(lo, lo+2))), labels[lo:lo+2])
			})
		})
	}
}

// TestHierarchicalAllreduceTraining plugs mp's two-level collective into
// the trainer via Config.Allreduce and checks it matches serial training
// like the flat ring does.
func TestHierarchicalAllreduceTraining(t *testing.T) {
	const steps, lr = 4, 0.2
	want := trainSerial(steps, lr)
	x, labels := globalBatch()
	p, group := 8, 4
	w := mp.NewWorld(p)
	results := make([][]float64, p)
	w.Run(func(c *mp.Comm) {
		m := buildModel()
		cfg := Config{Allreduce: func(c *mp.Comm, g []float64) []float64 {
			return c.AllReduceHierarchical(g, group)
		}}
		r := NewRank(c, m, optim.NewSGD(lr), cfg)
		lo := c.Rank()
		shardX := x.Slice2DRows(lo, lo+1)
		shardY := labels[lo : lo+1]
		for s := 0; s < steps; s++ {
			r.Step(func(int) *autograd.Value {
				return autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(shardX)), shardY)
			})
		}
		results[c.Rank()] = FlattenParams(m.Params())
	})
	for rk, got := range results {
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("rank %d param %d: %v vs serial %v", rk, i, got[i], want[i])
			}
		}
	}
}
