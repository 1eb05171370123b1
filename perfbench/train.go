package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"summitscale/internal/autograd"
	"summitscale/internal/checkpoint"
	"summitscale/internal/data"
	"summitscale/internal/ddl"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// setupReps is how many times a run sets up; setup_s is their median and
// the last set-up goes on into the timed phase.
const setupReps = 5

// Both training workloads feed the batch through autograd.ConstantIn, so
// the step graph lives in the rank's arena. summit-train wraps batches
// with autograd.Constant instead, which puts every step's graph on the
// heap: for 2000 train-cnn steps on a 2-vCPU host that meant about 1650
// GC cycles against 57, and a median step of 2.1-2.9 ms against 1.9 ms.
// Moving summit-train onto the arena is left to a change of its own.

// train-cnn: synchronous data parallelism at two ranks, with the shape of
// summit-train's default CNN (1 input channel, 8x8 images) and two conv
// blocks, trained with momentum SGD over a ring allreduce.
//
// Why two ranks and no fan-out: every conv GEMM here (at most 128x72x16)
// stays under the worker-pool fan-out threshold, so the two rank
// goroutines own the two cores and nothing else is busy. A step takes
// about 1.6 ms, so per-step overhead is a large share of it: batch
// synthesis, a ~21 KB ring allreduce, gradient flatten/unflatten and
// allocation. The packed GEMM never runs.
const (
	cnnBatch   = 8       // per rank
	cnnSamples = 1 << 16 // a 30 s run sees each sample about four times
	cnnImage   = 8
	// cnnLabelNoise is the share of samples whose label is flipped. The
	// vortex task is otherwise separable and the loss falls toward zero,
	// where its seed-to-seed spread swamps any change; with noisy labels
	// every seed trains toward the same floor, the labels' entropy.
	cnnLabelNoise = 0.15
)

var cnnShape = nn.SmallCNNConfig{InChannels: 1, ImageSize: cnnImage, Channels: []int{8, 16}, Classes: 2}

func trainCNN(cfg runConfig) (*outcome, error) {
	spec := trainSpec{
		ranks:        2,
		warmup:       100,
		block:        50,
		stepsPerS:    610,
		itemsPerStep: 2 * cnnBatch,
		gemmFlop:     cnnGemmFlop(cnnShape, cnnBatch),
		setUp: func(c *mp.Comm) (*rankJob, error) {
			src := data.NewClimateImages(cfg.seed, cnnSamples, cnnShape.InChannels, cnnImage)
			m := nn.NewSmallCNN(stats.NewRNG(cfg.seed+100), cnnShape)
			next := epochBatches(cfg.seed, src.Len(), cnnBatch, c)
			return &rankJob{
				model: m,
				opt:   optim.NewMomentumSGD(0.05, 0.9),
				batch: func(step int) lossFn {
					idx := next(step)
					x, labels := data.BatchImages(src, idx)
					for k, i := range idx {
						if noise(cfg.seed, i) < cnnLabelNoise {
							labels[k] ^= 1
						}
					}
					return func(a *tensor.Arena) *autograd.Value {
						return autograd.SoftmaxCrossEntropy(m.Forward(autograd.ConstantIn(a, x)), labels)
					}
				},
				finish: func(c *mp.Comm) error {
					if !ddl.ReplicasConsistent(c, m, 1e-9) {
						return errors.New("replicas diverged beyond 1e-9")
					}
					return nil
				},
			}, nil
		},
	}
	return runTraining(cfg, spec)
}

// cnnGemmFlop is the GEMM work of one rank's step, computed from layer
// shapes: each conv is an im2col GEMM of (N·H·W)×(C·9)×F at stride 1 and
// padding 1, the head a dense (N×C)×classes product, and backward runs
// two GEMMs of the forward's size per layer (weight and input gradients).
func cnnGemmFlop(shape nn.SmallCNNConfig, batch int) float64 {
	var fwd float64
	in, size := shape.InChannels, shape.ImageSize
	for _, out := range shape.Channels {
		fwd += 2 * float64(batch*size*size) * float64(in*9) * float64(out)
		in, size = out, size/2
	}
	fwd += 2 * float64(batch) * float64(in) * float64(shape.Classes)
	return 3 * fwd
}

// train-wide: compute-bound training on one rank. A residual MLP of width
// 256 learns chirp parameters from data.Waveforms with LAMB, resuming at
// set-up from a three-tier checkpoint store and committing every
// wideCommitEvery steps (Save + DrainAllAsync, Wait before the next).
//
// Why one rank with fan-out: every residual-block GEMM is 64x256x256,
// forward and backward, which takes the packed path fanned over the
// shared worker pool — the pool is the second busy goroutine. LAMB's
// 256x256 layers shard across the pool too, and the commits exercise the
// checkpoint write, drain and read paths. A one-rank ring has no peer, so
// mp only copies the gradient.
const (
	wideBatch       = 64
	wideSamples     = 1 << 15
	wideIn          = 64
	wideWidth       = 256
	wideOut         = 2
	wideDepth       = 2
	wideCommitEvery = 25
	// wideTargetNoise is the standard deviation of the noise on the
	// regression targets, which puts a floor of its square under the MSE
	// for the same reason as cnnLabelNoise.
	wideTargetNoise = 0.25
)

func newWideModel(seed uint64) *nn.ResidualMLP {
	return nn.NewResidualMLP(stats.NewRNG(seed), wideIn, wideWidth, wideOut, wideDepth)
}

// wideGemmFlop is one step's GEMM work from layer shapes: a dense layer
// of in×out on a batch of n is 2·n·in·out forward and twice that
// backward.
func wideGemmFlop(batch int) float64 {
	fwd := 2 * float64(batch) * float64(wideIn*wideWidth+2*wideDepth*wideWidth*wideWidth+wideWidth*wideOut)
	return 3 * fwd
}

func trainWide(cfg runConfig) (*outcome, error) {
	root := filepath.Join(cfg.workdir, "ckpt")
	tiers := []checkpoint.TierDir{
		{Name: "nvme", Dir: filepath.Join(root, "nvme")},
		{Name: "replica", Dir: filepath.Join(root, "replica")},
		{Name: "gpfs", Dir: filepath.Join(root, "gpfs")},
	}
	// The checkpoint set-up resumes from: the seeded initial model,
	// committed as version 1 and drained to every tier.
	resumed := newWideModel(cfg.seed + 200)
	if err := seedStore(tiers, resumed); err != nil {
		return nil, err
	}
	var restoreMs []float64
	var commitBytes int64
	src := data.NewWaveforms(cfg.seed, wideSamples, wideIn, 0.02)
	spec := trainSpec{
		ranks:        1,
		warmup:       5,
		block:        wideCommitEvery,
		stepsPerS:    28,
		itemsPerStep: wideBatch,
		gemmFlop:     wideGemmFlop(wideBatch),
		setUp: func(c *mp.Comm) (*rankJob, error) {
			store, err := checkpoint.NewStore(tiers, 2)
			if err != nil {
				return nil, err
			}
			m := newWideModel(cfg.seed + 300)
			t := time.Now()
			info, err := store.Restore(m)
			restoreMs = append(restoreMs, ms(time.Since(t)))
			if err != nil {
				return nil, err
			}
			if info.Version != 1 || !sameParams(m, resumed) {
				return nil, fmt.Errorf("restore gave v%d, want the seeded v1 bit for bit", info.Version)
			}
			next := epochBatches(cfg.seed, src.Len(), wideBatch, c)
			version := info.Version
			return &rankJob{
				model: m,
				opt:   optim.NewLAMB(0.01),
				batch: func(step int) lossFn {
					x := tensor.New(wideBatch, wideIn)
					y := tensor.New(wideBatch, wideOut)
					for bi, si := range next(step) {
						series, params := src.Sample(si)
						copy(x.Data()[bi*wideIn:(bi+1)*wideIn], series)
						y.Set(params[0]+wideTargetNoise*gauss(cfg.seed, si, 0), bi, 0)
						y.Set(params[1]+wideTargetNoise*gauss(cfg.seed, si, 1), bi, 1)
					}
					return func(a *tensor.Arena) *autograd.Value {
						return autograd.MSE(m.Forward(autograd.ConstantIn(a, x)), y)
					}
				},
				commit: func(step int, tr *tracer) error {
					if (step+1)%wideCommitEvery != 0 {
						return nil
					}
					w := tr.begin("checkpoint.drain_wait")
					err := store.Wait()
					tr.end(w)
					if err != nil {
						return err
					}
					version++
					s := tr.begin("checkpoint.save")
					err = store.Save(m, version)
					if err == nil {
						store.DrainAllAsync(version)
					}
					tr.end(s)
					return err
				},
				flush: func(tr *tracer) error {
					w := tr.begin("checkpoint.drain_wait")
					defer tr.end(w)
					return store.Wait()
				},
				finish: func(*mp.Comm) error {
					n, err := verifyCommit(store, m, newWideModel(cfg.seed+400))
					commitBytes = n
					return err
				},
				close: func() { store.Close() },
			}, nil
		},
	}
	o, err := runTraining(cfg, spec)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		o.metrics["checkpoint.restore_ms"] = median(restoreMs)
		o.metrics["checkpoint.mb_per_commit"] = float64(commitBytes) / 1e6
	}
	return o, nil
}

// seedStore commits m as version 1 of a fresh store over tiers and drains
// it to every tier.
func seedStore(tiers []checkpoint.TierDir, m nn.Module) error {
	store, err := checkpoint.NewStore(tiers, 2)
	if err != nil {
		return err
	}
	if err := store.Save(m, 1); err != nil {
		return err
	}
	return store.DrainAll(1)
}

// verifyCommit checks the newest commit of store against the live model:
// every tier's copy passes its per-parameter CRC audit, and a restore
// into fresh (a model of the same shape) is bit-identical to live. It
// returns the bytes the commit wrote across all tiers.
func verifyCommit(store *checkpoint.Store, live, fresh nn.Module) (int64, error) {
	v := store.Newest()
	var written int64
	for t, tier := range store.Tiers() {
		path := store.VersionPath(t, v)
		sections, err := checkpoint.Verify(path)
		if err != nil {
			return 0, fmt.Errorf("v%d in %s: %w", v, tier.Name, err)
		}
		for _, s := range sections {
			if !s.OK {
				return 0, fmt.Errorf("v%d in %s: section %s fails its CRC", v, tier.Name, s.Name)
			}
		}
		n, err := fileSize(path)
		if err != nil {
			return 0, err
		}
		written += n
	}
	info, err := store.Restore(fresh)
	if err != nil {
		return 0, err
	}
	if info.Version != v || !sameParams(fresh, live) {
		return 0, fmt.Errorf("restore of v%d (got v%d) differs from the live parameters", v, info.Version)
	}
	return written, nil
}

// sameParams reports whether two models hold bit-identical parameters.
func sameParams(a, b nn.Module) bool {
	fa, fb := ddl.FlattenParams(a.Params()), ddl.FlattenParams(b.Params())
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

// epochBatches returns rank c's sample indices for any step, walking the
// globally shuffled epochs of an n-sample dataset in batches of batch.
func epochBatches(seed uint64, n, batch int, c *mp.Comm) func(step int) []int {
	perEpoch := n / c.Size() / batch
	epoch := -1
	var batches [][]int
	return func(step int) []int {
		if e := step / perEpoch; e != epoch {
			epoch = e
			batches = data.Batches(data.ShardedEpoch(seed, e, n, c.Size(), c.Rank()), batch)
		}
		return batches[step%perEpoch]
	}
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// noise returns a uniform draw in [0, 1) fixed by the seed and a sample
// index, so a sample's label noise is the same every time it is seen.
func noise(seed uint64, i int) float64 {
	return float64(splitmix(seed^splitmix(uint64(i)))>>11) / (1 << 53)
}

// gauss is a standard normal draw fixed by the seed, a sample index and
// a target column.
func gauss(seed uint64, i, col int) float64 {
	u1 := noise(seed, 2*i+col)
	u2 := noise(seed+1, 2*i+col)
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// splitmix is the SplitMix64 finaliser.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
