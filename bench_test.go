// Benchmark harness: one cold benchmark per registered experiment
// (BenchmarkExperiment/<ID>: the paper's tables, figures, scaling studies,
// system-requirement analyses, workflow case studies, and the resilience,
// chaos, serving and campaign studies), the whole registry on the DAG
// engine, and the three design-choice ablations called out in DESIGN.md
// (A1-A3).
//
// Run with: go test -bench=. -benchmem
package summitscale_test

import (
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/core"
	"summitscale/internal/mp"
	"summitscale/internal/netsim"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/platform"
	"summitscale/internal/stats"
	"summitscale/internal/storage"
	"summitscale/internal/tensor"
	"summitscale/internal/units"
)

// BenchmarkExperiment runs every registered experiment cold and alone,
// one sub-benchmark per ID (BenchmarkExperiment/S6, ...): no memo cache,
// no observer, so each iteration pays for the experiment's shared
// sub-results too. This is the per-experiment cost behind a cold
// summit-repro. The first iteration logs the paper-vs-measured
// comparison, so `go test -bench Experiment -v` doubles as a
// reproduction report.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range core.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := e.Run()
				if i == 0 {
					if !r.Pass() {
						b.Errorf("%s deviates from the paper:\n%s", e.ID, core.RenderResult(e, r))
					}
					b.Log("\n" + core.RenderResult(e, r))
				}
			}
		})
	}
}

// Hot-path pair: the full experiment suite on a cold dependency-DAG
// engine, at -j 1 and at -j 4. Both render byte-identical reports and
// both compute every shared sub-result once; the gap is the fan-out
// across experiments alone.

func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, pass := core.NewEngine().RunAllParallel(1)
		if !pass {
			b.Fatal("experiment suite failed")
		}
		if len(report) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, pass := core.NewEngine().RunAllParallel(4)
		if !pass {
			b.Fatal("experiment suite failed")
		}
		if len(report) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkDAGSchedule/dag-warm reuses one engine across iterations (the
// steady state of a long-lived tool, where memoized experiments only
// re-render). Against the cold BenchmarkRunAllParallel it measures what
// memoization saves.
func BenchmarkDAGSchedule(b *testing.B) {
	b.Run("dag-warm", func(b *testing.B) {
		en := core.NewEngine()
		en.RunAllParallel(4) // populate the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			report, pass := en.RunAllParallel(4)
			if !pass || len(report) == 0 {
				b.Fatal("experiment suite failed")
			}
		}
	})
}

// Cross-platform sweep: the Kurth et al. climate study (S1) replayed on
// every registered machine. One iteration evaluates the full study on one
// platform; the first iteration logs the per-machine efficiency so
// `go test -bench Platform -v` doubles as a what-if report.

func BenchmarkPlatformScalingSweep(b *testing.B) {
	for _, name := range platform.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := platform.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				s := core.ScalingStudiesOn(p)[0]
				r := core.RunScalingStudy(s)
				if len(r.Metrics) == 0 {
					b.Fatalf("%s: no metrics", name)
				}
				for _, m := range r.Metrics {
					if m.Measured != m.Measured || m.Measured > 1e308 || m.Measured < -1e308 {
						b.Fatalf("%s: metric %q is not finite: %v", name, m.Name, m.Measured)
					}
				}
				if i == 0 {
					b.Logf("%s: %s = %.4f", name, r.Metrics[0].Name, r.Metrics[0].Measured)
				}
			}
		})
	}
}

// Ablation A1 — allreduce algorithm choice. The real collectives run at a
// fixed vector size per sub-benchmark; the analytic crossover from the
// netsim model is logged for comparison.

func benchAllreduce(b *testing.B, algo string, n int) {
	b.Helper()
	const p = 8
	vecs := make([][]float64, p)
	rng := stats.NewRNG(1)
	for r := range vecs {
		vecs[r] = make([]float64, n)
		for i := range vecs[r] {
			vecs[r][i] = rng.NormFloat64()
		}
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mp.NewWorld(p)
		w.Run(func(c *mp.Comm) {
			switch algo {
			case "ring":
				c.AllReduceRing(vecs[c.Rank()])
			case "tree":
				c.AllReduceTree(vecs[c.Rank()])
			case "recdouble":
				c.AllReduceRecursiveDoubling(vecs[c.Rank()])
			}
		})
	}
}

func BenchmarkAblationAllreduce(b *testing.B) {
	f := netsim.SummitFabric()
	b.Logf("analytic ring/doubling crossover at 4608 nodes: %v", f.RingTreeCrossover(4608))
	for _, n := range []int{1 << 8, 1 << 14, 1 << 18} {
		n := n
		for _, algo := range []string{"ring", "tree", "recdouble"} {
			algo := algo
			b.Run(algo+"/"+itoa(n), func(b *testing.B) { benchAllreduce(b, algo, n) })
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

// Ablation A2 — storage path for a ResNet-50 epoch at 64..4608 nodes:
// GPFS direct vs NVMe staging (replicated vs partitioned with per-epoch
// shuffle). One iteration sweeps the whole grid through the model.

func BenchmarkAblationStorage(b *testing.B) {
	stager := storage.NewStager()
	gpfs := storage.NewGPFS()
	nvme := storage.NewNVMe()
	dataset := 150 * units.TB // ImageNet-scale scientific dataset
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{64, 512, 4608} {
			epochBytes := float64(dataset)
			gpfsTime := epochBytes / float64(gpfs.ReadBW(nodes))
			nvmeTime := epochBytes / float64(nvme.ReadBW(nodes))
			plan, err := stager.PlanFor(dataset, nodes)
			var stage, shuffle float64
			if err == nil {
				stage = float64(stager.StagingTime(dataset, nodes, plan))
				shuffle = float64(stager.EpochShuffleTime(dataset, nodes, plan))
			}
			sink += gpfsTime + nvmeTime + stage + shuffle
			if i == 0 {
				b.Logf("nodes=%4d  gpfs-epoch=%8.1fs  nvme-epoch=%8.1fs  stage=%8.1fs  shuffle=%6.1fs",
					nodes, gpfsTime, nvmeTime, stage, shuffle)
			}
		}
	}
	if sink == 0 {
		b.Fatal("model produced zero times")
	}
}

// Ablation A3 — optimizer choice at large batch: fixed-step training of
// an MLP on a fixed dataset; the per-iteration work is one full short
// training run. Final losses are logged for the convergence comparison.

func BenchmarkAblationOptimizer(b *testing.B) {
	rng := stats.NewRNG(3)
	x := tensor.Randn(rng, 1, 64, 8)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 4
	}
	mk := map[string]func() optim.Optimizer{
		"sgd":  func() optim.Optimizer { return optim.NewSGD(0.1) },
		"adam": func() optim.Optimizer { return optim.NewAdam(0.01) },
		"lars": func() optim.Optimizer { return optim.NewLARS(10) },
		"lamb": func() optim.Optimizer { return optim.NewLAMB(0.02) },
	}
	for _, name := range []string{"sgd", "adam", "lars", "lamb"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				m := nn.NewMLP(stats.NewRNG(42), []int{8, 32, 4}, autograd.Tanh)
				opt := mk[name]()
				for step := 0; step < 60; step++ {
					nn.ZeroGrads(m)
					loss := autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels)
					loss.Backward(nil)
					opt.Step(m.Params())
					last = loss.Data.At(0)
				}
			}
			b.Logf("%s final loss after 60 large-batch steps: %.4f", name, last)
			if last > 1.45 { // worse than uniform over 4 classes
				b.Errorf("%s failed to learn: loss %.4f", name, last)
			}
		})
	}
}
