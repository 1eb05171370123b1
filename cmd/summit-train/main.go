// Command summit-train runs a real distributed data-parallel training job
// on this machine: goroutine ranks, a real ring allreduce of gradients,
// and the large-batch optimizers of the paper's scale-out studies.
//
// Usage:
//
//	summit-train -model cnn -ranks 4 -epochs 10 -opt lamb
//	summit-train -model mlp -ranks 8 -opt lars -fp16
//	summit-train -model bert -ranks 2 -steps 30
//	summit-train -model mlp -ranks 4 -trace train.json -metrics
//	summit-train -model mlp -store ckpts/   # tiered versioned store
//	summit-train -verify-ckpt model.ckpt    # per-parameter CRC audit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"summitscale/internal/autograd"
	"summitscale/internal/checkpoint"
	"summitscale/internal/data"
	"summitscale/internal/ddl"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/optim"
	"summitscale/internal/platform"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// optimizerFor returns a constructor for the named optimizer, called once
// per rank, or nil for an unknown name.
func optimizerFor(name string, lr float64) func() optim.Optimizer {
	switch name {
	case "sgd":
		return func() optim.Optimizer { return optim.NewSGD(lr) }
	case "momentum":
		return func() optim.Optimizer { return optim.NewMomentumSGD(lr, 0.9) }
	case "adam":
		return func() optim.Optimizer { return optim.NewAdam(lr) }
	case "lars":
		return func() optim.Optimizer { return optim.NewLARS(lr) }
	case "lamb":
		return func() optim.Optimizer { return optim.NewLAMB(lr) }
	}
	return nil
}

// trainers maps each -model name to its training loop.
var trainers = map[string]func(*job){
	"cnn":     (*job).trainCNN,
	"mlp":     (*job).trainMLP,
	"bert":    (*job).trainBERT,
	"wavenet": (*job).trainWaveNet,
}

// run is the whole command: it parses args, trains, writes progress to
// stdout and failures to stderr, and returns the exit code: 0 on success,
// 1 when a checkpoint or trace write fails, 2 for bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "cnn", "cnn | mlp | bert | wavenet")
	ranks := fs.Int("ranks", 4, "data-parallel ranks (goroutines)")
	epochs := fs.Int("epochs", 10, "epochs (cnn/mlp)")
	steps := fs.Int("steps", 30, "steps (bert)")
	optName := fs.String("opt", "momentum", "sgd | momentum | adam | lars | lamb")
	lr := fs.Float64("lr", 0.05, "learning rate")
	fp16 := fs.Bool("fp16", false, "fp16 gradient compression")
	accum := fs.Int("accum", 1, "gradient accumulation steps")
	hier := fs.Int("hier", 0, "hierarchical allreduce island size (0 = flat ring, -1 = platform GPUs/node)")
	plat := fs.String("platform", "summit", "machine whose node shape sizes -hier -1 islands")
	ckpt := fs.String("ckpt", "", "checkpoint path: save after training, load first if present")
	storeDir := fs.String("store", "", "tiered checkpoint store root (nvme/replica/gpfs subdirs): restore the newest restorable version first, commit a new version and drain it to every tier afterwards")
	verifyCkpt := fs.String("verify-ckpt", "", "verify a checkpoint file's per-parameter CRC sections and exit (non-zero when any section is corrupt)")
	seed := fs.Uint64("seed", 1, "seed")
	traceOut := fs.String("trace", "", "write per-rank step/allreduce spans as Chrome trace-event JSON to this file (simulated step clock: 1 s per step)")
	metrics := fs.Bool("metrics", false, "print the obs metrics summary after training")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *verifyCkpt != "" {
		return verifyCheckpoint(*verifyCkpt, stdout, stderr)
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		fmt.Fprintf(stderr, "summit-train: %v\n", err)
		return 2
	}
	if *hier < 0 {
		if p.Node.GPUs <= 0 {
			fmt.Fprintf(stderr, "summit-train: -hier -1 needs a platform with GPUs per node, %s has none\n", p.Name)
			return 2
		}
		*hier = p.Node.GPUs
	}
	if *hier > 0 && *ranks%*hier != 0 {
		fmt.Fprintf(stderr, "summit-train: %d ranks not divisible by island size %d (%s has %d GPUs/node); pick -ranks as a multiple\n",
			*ranks, *hier, p.Name, p.Node.GPUs)
		return 2
	}
	train := trainers[*model]
	if train == nil {
		fmt.Fprintf(stderr, "summit-train: unknown model %q\n", *model)
		return 2
	}
	newOpt := optimizerFor(*optName, *lr)
	if newOpt == nil {
		fmt.Fprintf(stderr, "summit-train: unknown optimizer %q\n", *optName)
		return 2
	}

	cfg := ddl.Config{AccumSteps: *accum}
	if *fp16 {
		cfg.Compression = ddl.FP16
	}
	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
		cfg.Obs = ob
		// One simulated second per step puts every rank's step/allreduce
		// spans on a common clock regardless of real execution speed.
		cfg.StepTime = 1
	}
	if *hier > 0 {
		cfg.Allreduce = ddl.HierarchicalAllreduce(*hier)
	}
	j := &job{
		stdout: stdout, stderr: stderr,
		ranks: *ranks, epochs: *epochs, steps: *steps,
		newOpt: newOpt, cfg: cfg, seed: *seed,
		ckptPath: *ckpt,
	}
	if *storeDir != "" {
		st, err := checkpoint.NewStore([]checkpoint.TierDir{
			{Name: "nvme", Dir: filepath.Join(*storeDir, "nvme")},
			{Name: "replica", Dir: filepath.Join(*storeDir, "replica")},
			{Name: "gpfs", Dir: filepath.Join(*storeDir, "gpfs")},
		}, 4)
		if err != nil {
			fmt.Fprintf(stderr, "summit-train: store: %v\n", err)
			return 2
		}
		defer st.Close()
		j.store = st
	}

	train(j)
	if j.failed {
		return 1
	}

	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			fmt.Fprintf(stderr, "summit-train: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Fprint(stdout, ob.Trace.Summary())
		fmt.Fprint(stdout, ob.Metrics.Render())
	}
	return 0
}

// job is one training run: its settings, the writers it reports to, and
// whether any rank failed.
type job struct {
	stdout, stderr       io.Writer
	ranks, epochs, steps int
	newOpt               func() optim.Optimizer
	cfg                  ddl.Config
	seed                 uint64
	// ckptPath, when non-empty, makes every rank load the model before
	// training (if the file exists) and rank 0 save it afterwards. store
	// is the tiered alternative (-store): restores prefer the shallowest
	// healthy copy and saves commit a fresh version drained to every tier.
	ckptPath string
	store    *checkpoint.Store

	mu     sync.Mutex // serializes the ranks' output lines and failed
	failed bool
}

// report prints one progress line to stdout.
func (j *job) report(format string, args ...any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fmt.Fprintf(j.stdout, format+"\n", args...)
}

// fail marks the run failed and prints its first failure to stderr;
// later ones, such as the other ranks failing to load the same
// checkpoint, are dropped.
func (j *job) fail(format string, args ...any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.failed {
		fmt.Fprintf(j.stderr, "summit-train: "+format+"\n", args...)
		j.failed = true
	}
}

// verifyCheckpoint audits a checkpoint file's per-parameter CRC sections
// and returns 1 when any section fails its checksum.
func verifyCheckpoint(path string, stdout, stderr io.Writer) int {
	sections, err := checkpoint.Verify(path)
	if err != nil {
		fmt.Fprintf(stderr, "summit-train: verify: %v\n", err)
		return 1
	}
	bad := 0
	for _, s := range sections {
		status := "ok"
		if !s.OK {
			status = "CORRUPT"
			bad++
		}
		fmt.Fprintf(stdout, "  %-24s %8d elems  %s\n", s.Name, s.Elems, status)
	}
	fmt.Fprintf(stdout, "%s: %d section(s), %d corrupt\n", path, len(sections), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

// maybeLoad restores the model from the checkpoint when one exists. Every
// rank loads, so replicas stay identical; it reports false when the load
// failed. Every rank reads the same bytes, so all of them fail together
// and stop before their first collective.
func (j *job) maybeLoad(c *mp.Comm, m nn.Module) bool {
	if j.store != nil {
		// A store with no committed versions is a fresh start, not a
		// failure.
		if j.store.Newest() < 0 {
			return true
		}
		info, err := j.store.Restore(m)
		if err != nil {
			j.fail("store restore: %v", err)
			return false
		}
		if c.Rank() == 0 {
			j.report("restored checkpoint v%d from %s tier", info.Version, info.TierName)
		}
		return true
	}
	if j.ckptPath == "" {
		return true
	}
	if _, err := os.Stat(j.ckptPath); err != nil {
		return true
	}
	if err := checkpoint.Load(m, j.ckptPath); err != nil {
		j.fail("checkpoint load: %v", err)
		return false
	}
	if c.Rank() == 0 {
		j.report("restored checkpoint %s", j.ckptPath)
	}
	return true
}

// maybeSave persists the model from rank 0.
func (j *job) maybeSave(c *mp.Comm, m nn.Module) {
	if c.Rank() != 0 {
		return
	}
	if j.store != nil {
		v := j.store.Newest() + 1
		if v < 1 {
			v = 1
		}
		if err := j.store.Save(m, v); err != nil {
			j.fail("store save: %v", err)
			return
		}
		if err := j.store.DrainAll(v); err != nil {
			j.fail("store drain: %v", err)
			return
		}
		j.report("committed checkpoint v%d and drained it to every tier", v)
		return
	}
	if j.ckptPath == "" {
		return
	}
	if err := checkpoint.Save(m, j.ckptPath); err != nil {
		j.fail("checkpoint save: %v", err)
		return
	}
	j.report("saved checkpoint %s", j.ckptPath)
}

func (j *job) trainCNN() {
	src := data.NewClimateImages(j.seed, 64, 1, 8)
	w := mp.NewWorld(j.ranks)
	w.Run(func(c *mp.Comm) {
		m := nn.NewSmallCNN(stats.NewRNG(j.seed+100), nn.SmallCNNConfig{
			InChannels: 1, ImageSize: 8, Channels: []int{8}, Classes: 2,
		})
		if !j.maybeLoad(c, m) {
			return
		}
		r := ddl.NewRank(c, m, j.newOpt(), j.cfg)
		for epoch := 0; epoch < j.epochs; epoch++ {
			idx := data.ShardedEpoch(j.seed, epoch, src.Len(), c.Size(), c.Rank())
			var loss float64
			for _, batch := range data.Batches(idx, 4) {
				x, labels := data.BatchImages(src, batch)
				loss = r.Step(func(int) *autograd.Value {
					return autograd.SoftmaxCrossEntropy(m.Forward(autograd.ConstantIn(r.Arena(), x)), labels)
				})
			}
			if c.Rank() == 0 {
				j.report("epoch %2d  loss %.4f", epoch, loss)
			}
		}
		// The replica check gathers every other rank's parameters on
		// rank 0. Each rank sends its share after its last allreduce, so
		// once the gather returns the byte counter holds all the ring's
		// traffic plus exactly the gather, which is subtracted below.
		consistent := ddl.ReplicasConsistent(c, m, 1e-9)
		if c.Rank() == 0 {
			// Training accuracy over the whole set.
			correct := 0
			for i := 0; i < src.Len(); i += 8 {
				hi := i + 8
				if hi > src.Len() {
					hi = src.Len()
				}
				idx := make([]int, hi-i)
				for k := range idx {
					idx[k] = i + k
				}
				x, labels := data.BatchImages(src, idx)
				pred := m.Forward(autograd.Constant(x)).Data.ArgMaxRows()
				for k, p := range pred {
					if p == labels[k] {
						correct++
					}
				}
			}
			gathered := int64(c.Size()-1) * 8 * int64(nn.ParamCount(m))
			j.report("accuracy %.1f%%  (bytes allreduced: %d)",
				100*float64(correct)/float64(src.Len()), w.BytesSent()-gathered)
		}
		if !consistent {
			j.report("WARNING: replicas diverged")
		}
		j.maybeSave(c, m)
	})
}

func (j *job) trainMLP() {
	// Waveform parameter regression (Khan et al. in miniature).
	src := data.NewWaveforms(j.seed, 128, 64, 0.02)
	w := mp.NewWorld(j.ranks)
	w.Run(func(c *mp.Comm) {
		m := nn.NewResidualMLP(stats.NewRNG(j.seed+200), 64, 32, 2, 2)
		if !j.maybeLoad(c, m) {
			return
		}
		r := ddl.NewRank(c, m, j.newOpt(), j.cfg)
		for epoch := 0; epoch < j.epochs; epoch++ {
			idx := data.ShardedEpoch(j.seed, epoch, src.Len(), c.Size(), c.Rank())
			var loss float64
			for _, batch := range data.Batches(idx, 8) {
				x := tensor.New(len(batch), 64)
				y := tensor.New(len(batch), 2)
				for bi, si := range batch {
					series, params := src.Sample(si)
					copy(x.Data()[bi*64:(bi+1)*64], series)
					y.Set(params[0], bi, 0)
					y.Set(params[1], bi, 1)
				}
				loss = r.Step(func(int) *autograd.Value {
					return autograd.MSE(m.Forward(autograd.ConstantIn(r.Arena(), x)), y)
				})
			}
			if c.Rank() == 0 {
				j.report("epoch %2d  mse %.5f", epoch, loss)
			}
		}
		j.maybeSave(c, m)
	})
}

// trainWaveNet regresses chirp parameters with a dilated causal
// convolution stack (Khan et al.'s architecture family).
func (j *job) trainWaveNet() {
	const seqLen = 32
	src := data.NewWaveforms(j.seed, 64, seqLen, 0.02)
	w := mp.NewWorld(j.ranks)
	w.Run(func(c *mp.Comm) {
		m := nn.NewWaveNetStack(stats.NewRNG(j.seed+400), 6, 3, 2)
		if !j.maybeLoad(c, m) {
			return
		}
		r := ddl.NewRank(c, m, j.newOpt(), j.cfg)
		for epoch := 0; epoch < j.epochs; epoch++ {
			idx := data.ShardedEpoch(j.seed, epoch, src.Len(), c.Size(), c.Rank())
			var loss float64
			for _, batch := range data.Batches(idx, 8) {
				x := tensor.New(len(batch), 1, seqLen)
				y := tensor.New(len(batch), 2)
				for bi, si := range batch {
					series, params := src.Sample(si)
					copy(x.Data()[bi*seqLen:(bi+1)*seqLen], series)
					y.Set(params[0], bi, 0)
					y.Set(params[1], bi, 1)
				}
				loss = r.Step(func(int) *autograd.Value {
					return autograd.MSE(m.Forward(autograd.ConstantIn(r.Arena(), x)), y)
				})
			}
			if c.Rank() == 0 && epoch%5 == 0 {
				j.report("epoch %2d  mse %.5f  (receptive field %d)", epoch, loss, m.ReceptiveField())
			}
		}
		j.maybeSave(c, m)
	})
}

func (j *job) trainBERT() {
	src := data.NewSMILESSequences(j.seed, 256, 16)
	w := mp.NewWorld(j.ranks)
	w.Run(func(c *mp.Comm) {
		m := nn.NewMiniBERT(stats.NewRNG(j.seed+300), nn.MiniBERTConfig{
			Vocab: src.Vocab(), SeqLen: 16, Dim: 32, Heads: 4, FFDim: 64, Layers: 2,
		})
		if !j.maybeLoad(c, m) {
			return
		}
		r := ddl.NewRank(c, m, j.newOpt(), j.cfg)
		rng := stats.NewRNG(j.seed + uint64(c.Rank()))
		for s := 0; s < j.steps; s++ {
			loss := r.Step(func(int) *autograd.Value {
				i := rng.Intn(src.Len())
				input, target, _ := src.MaskedSample(i, 0.15)
				return autograd.SoftmaxCrossEntropy(m.Forward(input), target)
			})
			if c.Rank() == 0 && s%5 == 0 {
				j.report("step %3d  masked-LM loss %.4f", s, loss)
			}
		}
		j.maybeSave(c, m)
	})
}
