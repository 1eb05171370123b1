package ddl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// trajShape is a ResidualMLP's input, width, output and block count and
// the batch each rank trains on.
type trajShape struct{ in, width, out, depth, batch int }

var (
	// smallShape is below every fan-out threshold.
	smallShape = trajShape{6, 16, 3, 2, 8}
	// wideShape is perfbench's train-wide: its 64×256×256 products fan
	// out, and its 256×256 layers put LAMB above its pool threshold.
	wideShape = trajShape{64, 256, 2, 2, 64}
)

// trajectory trains a ResidualMLP of shape sh with LAMB on p ranks for
// steps steps under cfg, each rank on its own seeded batches routed
// through the rank arena, and returns the sha256 of rank 0's final
// parameters and every step's loss.
func trajectory(sh trajShape, p, steps int, cfg Config) string {
	w := mp.NewWorld(p)
	var sum string
	w.Run(func(c *mp.Comm) {
		m := nn.NewResidualMLP(stats.NewRNG(3), sh.in, sh.width, sh.out, sh.depth)
		r := NewRank(c, m, optim.NewLAMB(0.01), cfg)
		rng := stats.NewRNG(uint64(50 + c.Rank()))
		h := sha256.New()
		for s := 0; s < steps; s++ {
			x := tensor.Randn(rng, 1, sh.batch, sh.in)
			y := tensor.Randn(rng, 1, sh.batch, sh.out)
			loss := r.Step(func(int) *autograd.Value {
				return autograd.MSE(m.Forward(autograd.ConstantIn(r.Arena(), x)), y)
			})
			binary.Write(h, binary.LittleEndian, loss)
		}
		r.Flush()
		if c.Rank() == 0 {
			binary.Write(h, binary.LittleEndian, FlattenParams(m.Params()))
			sum = fmt.Sprintf("%x", h.Sum(nil))
		}
	})
	return sum
}

// TestTrajectoriesMatchParent pins the losses and final parameters of
// lagged, overlapped and plain training to the values the copying ring
// and the single flat buffer gave before the ring reduced in place. The
// wide rows train at train-wide's shape, so they run the GEMM fan-out,
// the dX strips and LAMB's pool fan-out; their sums were recorded from
// the step that still flattened at one rank and transposed W for dX.
func TestTrajectoriesMatchParent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape trajShape
		p     int
		cfg   Config
		want  string
	}{
		{"plain-1", smallShape, 1, Config{}, "23ea168761a8932c9642fdc62e357b12ca2baf0a4eed55ef8979eadfc9842b86"},
		{"plain-3", smallShape, 3, Config{AccumSteps: 2}, "19417c32ebb34b607476bddb4e36569ae3586cf75cf2d500410a1e740a504a59"},
		{"gradlag-1", smallShape, 1, Config{GradLag: true}, "95850bf18a10092a64f89e9e3f1f9cd70086129d0a9cec86e0bee59d202c84dc"},
		{"gradlag-3", smallShape, 3, Config{GradLag: true}, "b28b8f4d85c924d9eb2b0b90a7c5b0cfc76df6c5ddd4b682b756fb0dc6ec93a1"},
		{"overlap-1", smallShape, 1, Config{GradLag: true, Overlap: true}, "95850bf18a10092a64f89e9e3f1f9cd70086129d0a9cec86e0bee59d202c84dc"},
		{"overlap-4-hier", smallShape, 4, Config{GradLag: true, Overlap: true, Allreduce: HierarchicalAllreduce(2)}, "692b16d0f835098bebb1258ffb7f1472d47e39ce47ed69fb4382aa271a2d5e6f"},
		{"overlap-3-fp16", smallShape, 3, Config{GradLag: true, Overlap: true, Compression: FP16}, "3a21a7a9bbd31d5ed53a06ea346dd6482fa399290272ed2ef0a97e1260493aaf"},
		{"wide-plain-1", wideShape, 1, Config{}, "cc6f30b4f279489e2913272edd0e0e7b09c11bd1214a2515252729eea08ffe73"},
		{"wide-plain-2", wideShape, 2, Config{}, "6d92b90716166f14ed4c0dfeb57c8d9ec96ec684453a0cb0af33a7910b9b46a1"},
		{"wide-gradlag-1", wideShape, 1, Config{GradLag: true}, "b7c1de63d84f326274c6dcd0691ebc318a356e5d3bb23e8a1592f8701ddafae9"},
	} {
		if got := trajectory(tc.shape, tc.p, 7, tc.cfg); got != tc.want {
			t.Errorf("%s: trajectory %s, want %s", tc.name, got, tc.want)
		}
	}
}

// spareLayer is a Layer with one parameter its Forward never reads, so
// the parameter never gets a gradient from backward.
type spareLayer struct {
	nn.Layer
	spare nn.Param
}

func (l spareLayer) Params() []nn.Param { return append(l.Layer.Params(), l.spare) }

// TestOneRankInPlaceMatchesFlatten: a one-rank step that hands the
// optimizer the parameters' own gradients trains bit-identically to the
// flatten path, which an identity Config.Allreduce forces, under LAMB and
// under momentum SGD with weight decay. The model has a parameter outside
// the loss graph: both paths must give it a zero gradient, which the
// optimizer still decays. Both paths record the same counters and spans.
func TestOneRankInPlaceMatchesFlatten(t *testing.T) {
	identity := func(_ *mp.Comm, g []float64) []float64 { return g }
	for name, newOpt := range map[string]func() optim.Optimizer{
		"lamb":         func() optim.Optimizer { return optim.NewLAMB(0.01) },
		"momentum-sgd": func() optim.Optimizer { return &optim.SGD{Rate: 0.05, Momentum: 0.9, WeightDecay: 1e-3} },
	} {
		run := func(allreduce func(*mp.Comm, []float64) []float64) (losses, params []float64, metrics, trace string) {
			mp.NewWorld(1).Run(func(c *mp.Comm) {
				m := spareLayer{
					Layer: nn.NewResidualMLP(stats.NewRNG(3), 6, 16, 3, 2),
					spare: nn.Param{Name: "spare", Value: autograd.NewLeaf(tensor.Randn(stats.NewRNG(5), 1, 4, 5), true)},
				}
				o := obs.New()
				r := NewRank(c, m, newOpt(), Config{Allreduce: allreduce, Obs: o, StepTime: 0.5})
				rng := stats.NewRNG(50)
				for s := 0; s < 5; s++ {
					x := tensor.Randn(rng, 1, 8, 6)
					y := tensor.Randn(rng, 1, 8, 3)
					losses = append(losses, r.Step(func(int) *autograd.Value {
						return autograd.MSE(m.Forward(autograd.ConstantIn(r.Arena(), x)), y)
					}))
				}
				params = FlattenParams(m.Params())
				metrics, trace = o.Metrics.Render(), string(o.Trace.ChromeTrace())
			})
			return
		}
		lossIn, paramsIn, metricsIn, traceIn := run(nil)
		lossFlat, paramsFlat, metricsFlat, traceFlat := run(identity)
		for what, pair := range map[string][2][]float64{"loss": {lossIn, lossFlat}, "parameter": {paramsIn, paramsFlat}} {
			for i := range pair[1] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("%s: %s %d is %v in place, %v through the flat buffer", name, what, i, pair[0][i], pair[1][i])
				}
			}
		}
		spare := tensor.Randn(stats.NewRNG(5), 1, 4, 5).Data()
		if got := paramsIn[len(paramsIn)-len(spare):]; got[0] == spare[0] {
			t.Errorf("%s: the parameter outside the loss graph kept its value %v: it was not decayed", name, got[0])
		}
		if metricsIn != metricsFlat || traceIn != traceFlat {
			t.Errorf("%s: counters or spans differ:\nin place:\n%s\nflat:\n%s", name, metricsIn, metricsFlat)
		}
		if !strings.Contains(metricsIn, "ddl.allreduce.bytes") {
			t.Errorf("%s: no ddl.allreduce.bytes counter in\n%s", name, metricsIn)
		}
	}
}

// recordingOpt keeps a copy of the gradients each Step was handed and
// then steps inner, if set; without one it changes nothing.
type recordingOpt struct {
	applied [][]float64
	inner   optim.Optimizer
}

func (o *recordingOpt) Step(params []nn.Param) {
	o.applied = append(o.applied, FlattenGradsInto(nil, params))
	if o.inner != nil {
		o.inner.Step(params)
	}
}
func (o *recordingOpt) LR() float64 { return 0 }

// TestLaggedGradientSurvivesNextFlatten: with GradLag (and Overlap) on one
// rank, where the ring hands the flat buffer itself back as the reduced
// gradient, step k+1 applies step k's gradient, not its own: its flatten
// goes to the other buffer and leaves the pending gradient intact.
func TestLaggedGradientSurvivesNextFlatten(t *testing.T) {
	const steps = 4
	batches := make([]*tensor.Tensor, steps)
	rng := stats.NewRNG(61)
	for i := range batches {
		batches[i] = tensor.Randn(rng, 1, 8, 4)
	}
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	// The model never changes (the optimizer only records), so each
	// batch's gradient can be computed up front on a heap graph.
	want := make([][]float64, steps)
	for i, x := range batches {
		m := buildModel()
		autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels).Backward(nil)
		want[i] = FlattenGradsInto(nil, m.Params())
	}
	for _, cfg := range []Config{{GradLag: true}, {GradLag: true, Overlap: true}} {
		mp.NewWorld(1).Run(func(c *mp.Comm) {
			m := buildModel()
			opt := &recordingOpt{}
			r := NewRank(c, m, opt, cfg)
			for _, x := range batches {
				r.Step(func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(m.Forward(autograd.ConstantIn(r.Arena(), x)), labels)
				})
			}
			r.Flush()
			if len(opt.applied) != steps-1 {
				t.Fatalf("overlap=%v: %d updates, want %d", cfg.Overlap, len(opt.applied), steps-1)
			}
			for k, got := range opt.applied {
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[k][i]) {
						t.Fatalf("overlap=%v: update %d element %d is %v, want step %d's gradient %v",
							cfg.Overlap, k+1, i, got[i], k, want[k][i])
					}
				}
			}
		})
	}
}

// withholdingRing returns a Config.Allreduce that ring-reduces every call
// but returns nil for the calls (counted from 0) listed in withhold. Calls
// come one at a time, also under Overlap, so the count needs no lock.
func withholdingRing(withhold ...int) func(*mp.Comm, []float64) []float64 {
	call := -1
	return func(c *mp.Comm, g []float64) []float64 {
		reduced := c.AllReduceRing(g)
		call++
		if slices.Contains(withhold, call) {
			return nil
		}
		return reduced
	}
}

// requireSameBits fails unless got and want match bit for bit.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestWithheldCollectiveAppliesNothing: a Config.Allreduce that returns
// nil leaves every parameter as it was, the optimizer is not called, and
// Step still returns the loss. The next step, whose collective returns
// the reduced gradient, applies it exactly as an ordinary first step
// would.
func TestWithheldCollectiveAppliesNothing(t *testing.T) {
	const p = 2
	x, labels := globalBatch()
	shard := func(m nn.Module, rank int) func(int) *autograd.Value {
		lo, hi := rank*8/p, (rank+1)*8/p
		return func(int) *autograd.Value {
			return autograd.SoftmaxCrossEntropy(m.(*nn.Sequential).Forward(autograd.Constant(x.Slice2DRows(lo, hi))), labels[lo:hi])
		}
	}
	// The reference: one ordinary step from the initial parameters.
	var wantGrad, wantParams []float64
	mp.NewWorld(p).Run(func(c *mp.Comm) {
		m := buildModel()
		opt := &recordingOpt{inner: optim.NewSGD(0.2)}
		NewRank(c, m, opt, Config{Allreduce: withholdingRing()}).Step(shard(m, c.Rank()))
		if c.Rank() == 0 {
			wantGrad, wantParams = opt.applied[0], FlattenParams(m.Params())
		}
	})

	var afterWithheld, afterApplied []float64
	var calls int
	var loss float64
	var opt *recordingOpt
	mp.NewWorld(p).Run(func(c *mp.Comm) {
		m := buildModel()
		o := &recordingOpt{inner: optim.NewSGD(0.2)}
		r := NewRank(c, m, o, Config{Allreduce: withholdingRing(0)})
		l := r.Step(shard(m, c.Rank()))
		n := len(o.applied)
		withheld := FlattenParams(m.Params())
		r.Step(shard(m, c.Rank()))
		if c.Rank() == 0 {
			loss, calls, afterWithheld, opt = l, n, withheld, o
			afterApplied = FlattenParams(m.Params())
		}
	})
	if calls != 0 || len(opt.applied) != 1 {
		t.Fatalf("optimizer calls %d after the withheld step and %d after both, want 0 and 1", calls, len(opt.applied))
	}
	if want := shard(buildModel(), 0)(0).Data.At(0); math.Float64bits(loss) != math.Float64bits(want) {
		t.Fatalf("withheld step returned loss %v, want %v", loss, want)
	}
	requireSameBits(t, "parameters after the withheld step", afterWithheld, FlattenParams(buildModel().Params()))
	requireSameBits(t, "applied gradient", opt.applied[0], wantGrad)
	requireSameBits(t, "parameters after the applied step", afterApplied, wantParams)
}

// TestWithheldLaggedResultSkipsLater: under GradLag (with or without
// Overlap) step k applies step k−1's result, so a result withheld at
// step 1 is the update step 2 skips; steps 1 and 3 apply steps 0 and 2.
func TestWithheldLaggedResultSkipsLater(t *testing.T) {
	const steps = 4
	batches := make([]*tensor.Tensor, steps)
	rng := stats.NewRNG(61)
	for i := range batches {
		batches[i] = tensor.Randn(rng, 1, 8, 4)
	}
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	// The model never changes (the optimizer only records), so each
	// batch's gradient can be computed up front on a heap graph.
	want := make([][]float64, steps)
	for i, x := range batches {
		m := buildModel()
		autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels).Backward(nil)
		want[i] = FlattenGradsInto(nil, m.Params())
	}
	for _, cfg := range []Config{{GradLag: true}, {GradLag: true, Overlap: true}} {
		cfg.Allreduce = withholdingRing(1)
		opt := &recordingOpt{}
		mp.NewWorld(1).Run(func(c *mp.Comm) {
			m := buildModel()
			r := NewRank(c, m, opt, cfg)
			for _, x := range batches {
				r.Step(func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(m.Forward(autograd.ConstantIn(r.Arena(), x)), labels)
				})
			}
			r.Flush()
		})
		if len(opt.applied) != 2 {
			t.Fatalf("overlap=%v: %d updates, want 2", cfg.Overlap, len(opt.applied))
		}
		requireSameBits(t, fmt.Sprintf("overlap=%v: first update", cfg.Overlap), opt.applied[0], want[0])
		requireSameBits(t, fmt.Sprintf("overlap=%v: second update", cfg.Overlap), opt.applied[1], want[2])
	}
}

// TestDirtyArenaStepMatchesFresh: a step whose arena still holds a
// different batch's step gives the same loss and gradients, bit for bit,
// as the same step on a fresh rank; this holds for a ResidualMLP and a
// SmallCNN.
func TestDirtyArenaStepMatchesFresh(t *testing.T) {
	type model struct {
		name  string
		build func() nn.Layer
		batch func(rng *stats.RNG) *tensor.Tensor
		loss  func(out *autograd.Value) *autograd.Value
	}
	y := tensor.Randn(stats.NewRNG(67), 1, 8, 3)
	labels := []int{0, 1, 2, 3, 3, 2, 1, 0}
	for _, md := range []model{
		{"residual-mlp",
			func() nn.Layer { return nn.NewResidualMLP(stats.NewRNG(3), 6, 32, 3, 2) },
			func(rng *stats.RNG) *tensor.Tensor { return tensor.Randn(rng, 1, 8, 6) },
			func(out *autograd.Value) *autograd.Value { return autograd.MSE(out, y) }},
		{"small-cnn",
			func() nn.Layer {
				return nn.NewSmallCNN(stats.NewRNG(3), nn.SmallCNNConfig{InChannels: 1, ImageSize: 8, Channels: []int{4, 8}, Classes: 4})
			},
			func(rng *stats.RNG) *tensor.Tensor { return tensor.Randn(rng, 1, 8, 1, 8, 8) },
			func(out *autograd.Value) *autograd.Value { return autograd.SoftmaxCrossEntropy(out, labels) }},
	} {
		rng := stats.NewRNG(71)
		first, second := md.batch(rng), md.batch(rng)
		run := func(batches ...*tensor.Tensor) (loss float64, grads []float64) {
			mp.NewWorld(1).Run(func(c *mp.Comm) {
				m := md.build()
				opt := &recordingOpt{}
				r := NewRank(c, m, opt, Config{})
				for _, x := range batches {
					loss = r.Step(func(int) *autograd.Value {
						return md.loss(m.Forward(autograd.ConstantIn(r.Arena(), x)))
					})
				}
				grads = opt.applied[len(opt.applied)-1]
			})
			return loss, grads
		}
		wantLoss, want := run(second)
		gotLoss, got := run(first, second)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Errorf("%s: loss %v after a dirty arena, %v fresh", md.name, gotLoss, wantLoss)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: gradient %d is %v after a dirty arena, %v fresh", md.name, i, got[i], want[i])
			}
		}
	}
}
