package core

import (
	"fmt"
	"math"
	"strings"

	"summitscale/internal/autograd"
	"summitscale/internal/ddl"
	"summitscale/internal/faults"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/optim"
	"summitscale/internal/perf"
	"summitscale/internal/platform"
	"summitscale/internal/stats"
	"summitscale/internal/storage"
	"summitscale/internal/tensor"
	"summitscale/internal/units"
	"summitscale/internal/workflow"
)

// The resilience study: the machine is no longer failure-free. Fault
// traces from internal/faults (seeded, so every number below is byte
// -reproducible) interrupt the paper's full-Summit run shapes, and the
// checkpoint cadence that survives them is swept and compared against the
// Young/Daly first-order optimum sqrt(2·δ·MTBF).

// resilienceSeed roots every RNG in this file; traces derive from it.
const resilienceSeed = 20220523 // the paper's IPDPS year+month+day

func resilienceExperiments() []Experiment {
	return ResilienceExperimentsOn(platform.Summit())
}

// ResilienceExperimentsOn returns the failure-model experiments replayed
// on the given platform: RS1 (checkpoint-interval sweep vs Young/Daly on
// the §IV-B run shapes) and RS2 (fault-injected campaign retries plus an
// executable elastic-training run). On the baseline the paper-reference
// tolerances apply; elsewhere metrics keep their structural targets (the
// Young/Daly law is machine-independent).
func ResilienceExperimentsOn(p platform.Platform) []Experiment {
	return []Experiment{
		checkpointSweepExperiment(p),
		campaignResilienceExperiment(p),
	}
}

// ckptShape derives the checkpoint/restart run shape of a scaling study:
// the synchronous checkpoint stall δ (rank quiesce + model and optimizer
// state through one writer node) and the restart cost (relaunch, state
// read-back, and burst-buffer re-stage on machines with node-local
// drives).
func ckptShape(p platform.Platform, job perf.Job) faults.RunShape {
	const (
		quiesce  = units.Seconds(2)  // barrier + kernel drain before the write
		relaunch = units.Seconds(60) // scheduler re-slot + job re-exec
		// Checkpoint state: fp32 master weights + two optimizer moments +
		// the fp32 gradients buffer = 16 bytes per parameter.
		bytesPerParam = 16
		// Nominal staged dataset re-built on a replacement node (the
		// §VI-B hyperparameter-search staging volume).
		nominalDataset = 10 * units.TB
	)
	state := units.Bytes(job.Model.Params * bytesPerParam)
	writeBW := p.FS.WriteBW
	if cap := p.Node.InjectionBW; cap > 0 && cap < writeBW {
		writeBW = cap // one writer rank cannot exceed its own NIC
	}
	readBW := p.FS.ReadBW
	if cap := p.Node.InjectionBW; cap > 0 && cap < readBW {
		readBW = cap
	}
	restart := relaunch + units.Seconds(float64(state)/float64(readBW))
	if p.HasNodeLocal() {
		restart += p.Stager().ReStageTime(nominalDataset, job.Nodes, storage.PartitionDataset)
	}
	return faults.RunShape{
		TotalWork:      24 * units.Hour, // one full-machine INCITE shot
		CheckpointCost: quiesce + units.Seconds(float64(state)/float64(writeBW)),
		RestartCost:    restart,
	}
}

// checkpointSweepExperiment is RS1: sweep the checkpoint interval for the
// Kurth (S1) and Blanchard (S5) full-machine run shapes against seeded
// failure traces and compare the measured optimum with Young/Daly.
func checkpointSweepExperiment(p platform.Platform) Experiment {
	ref := p.IsPaperBaseline()
	run := func(c *Cache, ob *obs.Observer) Result {
		params := faults.ParamsFor(p.Machine, 0)
		var metrics []Metric
		var detail strings.Builder
		fmt.Fprintf(&detail, "  failure model: per-node MTBF %v -> system MTBF %v at %d nodes\n",
			params.NodeMTBF, params.SystemMTBF(), params.Nodes)

		for _, sc := range []struct {
			id    string
			study ScalingStudy
		}{
			{"Kurth", studyByID(c, p, "S1")},
			{"Blanchard", studyByID(c, p, "S5")},
		} {
			job := sc.study.Job
			shape := ckptShape(p, job)
			jp := faults.ParamsFor(p.Machine, job.Nodes)
			daly := faults.DalyInterval(shape.CheckpointCost, jp.SystemMTBF())

			// Common random numbers: the same failures across every
			// interval keep the sweep smooth and the argmin stable. The
			// sweep reads only the fatal failures, so only those are drawn.
			failureSets := make([][]units.Seconds, 160)
			for i := range failureSets {
				failureSets[i] = jp.FailureTimes(resilienceSeed+uint64(i), 2*shape.TotalWork)
			}
			grid := faults.GeometricIntervals(daly/8, daly*8, 33)
			pts := faults.Sweep(shape, grid, failureSets)
			best := faults.Optimum(pts)

			if ob != nil && sc.id == "Kurth" {
				// Representative replay for the trace: the measured-optimum
				// cadence against the first trace, emitting work/checkpoint/
				// lost-work/restart spans on the job clock.
				faults.Simulate(shape, best.Interval, jp.Generate(resilienceSeed, 2*shape.TotalWork), ob)
			}

			idealEff := 1 / (1 + faults.DalyOverhead(daly, shape.CheckpointCost, jp.SystemMTBF()))
			metrics = append(metrics,
				Metric{
					Name:     sc.id + ": measured/Daly optimal interval",
					Paper:    1,
					Measured: float64(best.Interval) / float64(daly),
					Unit:     "ratio",
					Tol:      0.15,
				},
				refMetric(ref, Metric{
					Name:     sc.id + ": achieved/ideal throughput",
					Paper:    1,
					Measured: best.Efficiency / idealEff,
					Unit:     "ratio",
					Tol:      0.05,
				}),
				Metric{
					Name:     sc.id + ": failures per 24h run",
					Measured: best.MeanFailures,
					Unit:     "faults",
				},
			)
			fmt.Fprintf(&detail, "  -- %s (%s, %d nodes): delta=%.1fs restart=%.0fs MTBF=%v\n",
				sc.id, job.Model.Name, job.Nodes, float64(shape.CheckpointCost),
				float64(shape.RestartCost), jp.SystemMTBF())
			detail.WriteString(renderSweepCompact(pts, daly))
		}
		return Result{Metrics: metrics, Detail: detail.String()}
	}
	return Experiment{
		ID:    "RS1",
		Title: "§IV-B resilience — checkpoint/restart under node failures",
		PaperClaim: "near-full-machine runs survive node failures every few hours; " +
			"checkpoint cadence balances write cost against lost work (Young/Daly)",
		Needs: []string{keyScalingStudies(p)},
		Body:  run,
	}
}

// renderSweepCompact prints every fourth sweep point plus the measured
// optimum, to keep the report readable.
func renderSweepCompact(pts []faults.SweepPoint, daly units.Seconds) string {
	var b strings.Builder
	best := faults.Optimum(pts)
	fmt.Fprintf(&b, "  %10s %12s %10s %10s %8s\n", "interval", "mean wall", "overhead", "failures", "eff")
	for i, pt := range pts {
		if i%4 != 0 && pt.Interval != best.Interval {
			continue
		}
		mark := ""
		if pt.Interval == best.Interval {
			mark = "  <- measured optimum"
		}
		fmt.Fprintf(&b, "  %9.0fs %11.0fs %9.2f%% %10.2f %7.1f%%%s\n",
			float64(pt.Interval), float64(pt.MeanWall), 100*pt.Overhead,
			pt.MeanFailures, 100*pt.Efficiency, mark)
	}
	fmt.Fprintf(&b, "  Young/Daly sqrt(2*delta*MTBF) = %.0fs\n", float64(daly))
	return b.String()
}

// studyByID picks one of the platform's §IV-B scaling studies, resolving
// the study set through the sub-result cache.
func studyByID(c *Cache, p platform.Platform, id string) ScalingStudy {
	for _, s := range cachedScalingStudies(c, p) {
		if s.ID == id {
			return s
		}
	}
	panic("core: unknown scaling study " + id)
}

// campaignResilienceExperiment is RS2: a §V campaign re-run with
// trace-driven task failures feeding the retry policy (attempt counts and
// backoff totals now surfaced), plus an executable elastic data-parallel
// run that loses a rank mid-flight, restores from its checkpoint, and
// still matches uninterrupted training.
func campaignResilienceExperiment(p platform.Platform) Experiment {
	run := func(_ *Cache, ob *obs.Observer) Result {
		var metrics []Metric
		var detail strings.Builder

		// --- Campaign under a trace. A 32-node steering allocation;
		// the per-node interrupt rate is scaled 1000x above the
		// hardware MTBF because campaign tasks also die to queue
		// eviction and preemption, not just node crashes.
		cp := faults.ParamsFor(p.Machine, 32)
		cp.NodeMTBF /= 1000
		trace := cp.Generate(resilienceSeed, 48*units.Hour)

		inj := workflow.NewTraceInjector(trace, 6*units.Hour)
		inj.Obs = ob
		st := &workflow.RetryStats{}
		policy := workflow.RetryPolicy{MaxAttempts: 25, Backoff: 30, Stats: st, Obs: ob}
		in := &workflow.Instrument{Obs: ob, Window: 6 * units.Hour}
		w := workflow.New()
		stages := []string{"stage-in", "simulate", "embed", "select", "train", "resample", "analyze", "publish"}
		for i, name := range stages {
			t := &workflow.Task{Name: name, Run: policy.Wrap(name, in.Wrap(name, inj.Wrap(name, nil)))}
			if i > 0 {
				t.Deps = []string{stages[i-1]}
			}
			w.MustAdd(t)
		}
		completed := 1.0
		if err := w.Run(workflow.NewContext()); err != nil {
			completed = 0
		}
		snap := st.Snapshot()
		metrics = append(metrics,
			Metric{Name: "campaign completes under faults (1=yes)", Paper: 1,
				Measured: completed, Unit: "bool", Tol: 1e-9},
			Metric{Name: "task faults injected from trace", Measured: float64(inj.Injected), Unit: "faults"},
			Metric{Name: "retry attempts across campaign", Measured: float64(snap.Attempts), Unit: "attempts"},
			Metric{Name: "simulated backoff total", Measured: float64(snap.BackoffTotal), Unit: "s"},
		)
		fmt.Fprintf(&detail, "  campaign trace: %s\n  retry policy:   %s\n", trace.Summary(), snap)

		// --- Elastic training: 4 ranks, 6 steps, checkpoint every 2;
		// the trace's first failure (mapped onto the step clock, one
		// step per 10 simulated minutes) kills two ranks — the shrunken
		// world must still divide the 8-sample batch. The committed
		// model must match uninterrupted serial training exactly.
		const steps, lr = 6, 0.2
		ep := faults.ParamsFor(p.Machine, 4)
		ep.NodeMTBF = 8 * units.Hour // unit-scale demonstration run
		etrace := elasticTraceWithFailure(ep, 10*units.Minute, steps)
		failStep := int(etrace.FailureTimes()[0] / (10 * units.Minute))

		serial := elasticSerialParams(steps, lr)
		res, err := ddl.RunElastic(ddl.ElasticConfig{
			Ranks: 4, Steps: steps, CheckpointEvery: 2,
			FailAtStep: map[int]int{failStep: 2},
			Obs:        ob, StepTime: 10 * units.Minute,
		}, elasticModel, func() optim.Optimizer { return optim.NewSGD(lr) }, elasticLossFn())
		if err != nil {
			return Result{Metrics: []Metric{{Name: "elastic run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}
		maxDiff := 0.0
		for i := range serial {
			if d := math.Abs(res.FinalParams[i] - serial[i]); d > maxDiff {
				maxDiff = d
			}
		}
		metrics = append(metrics,
			Metric{Name: "elastic vs uninterrupted max param delta", Paper: 0,
				Measured: maxDiff, Unit: "", Tol: 1e-9},
			Metric{Name: "lost steps re-done after restore", Measured: float64(res.LostSteps), Unit: "steps"},
			Metric{Name: "surviving ranks after failure", Measured: float64(res.FinalRanks), Unit: "ranks"},
		)
		fmt.Fprintf(&detail,
			"  elastic run:    rank failure at step %d of %d; %d restore(s); %d -> %d ranks; %d step(s) of lost work re-done\n",
			failStep, steps, res.Restores, 4, res.FinalRanks, res.LostSteps)
		return Result{Metrics: metrics, Detail: detail.String()}
	}
	return Experiment{
		ID:    "RS2",
		Title: "§V resilience — fault-injected campaign retries + elastic training",
		PaperClaim: "campaign orchestrators retry failed stages through node loss; " +
			"training restores from checkpoints without changing the learned model",
		Body: run,
	}
}

// elasticTraceWithFailure searches seeds (deterministically, from the
// study root) for a trace whose first fatal failure lands strictly inside
// the step window, so the demonstration always exercises a restore.
func elasticTraceWithFailure(p faults.Params, stepTime units.Seconds, steps int) *faults.Trace {
	horizon := stepTime * units.Seconds(steps)
	for seed := uint64(resilienceSeed); ; seed++ {
		tr := p.Generate(seed, horizon)
		ft := tr.FailureTimes()
		if len(ft) > 0 && int(ft[0]/stepTime) > 0 && int(ft[0]/stepTime) < steps {
			return tr
		}
	}
}

// The elastic demonstration trains the ddl test model: an MLP on a fixed
// 8-sample batch, sharded evenly over the live world size.
func elasticModel() nn.Module {
	return nn.NewMLP(stats.NewRNG(42), []int{4, 8, 3}, autograd.Tanh)
}

func elasticBatch() (*tensor.Tensor, []int) {
	return tensor.Randn(stats.NewRNG(7), 1, 8, 4), []int{0, 1, 2, 0, 1, 2, 0, 1}
}

func elasticLossFn() func(rank, world, step, micro int, m nn.Module) *autograd.Value {
	x, labels := elasticBatch()
	return func(rank, world, step, micro int, m nn.Module) *autograd.Value {
		per := 8 / world
		lo := rank * per
		out := m.(*nn.Sequential).Forward(autograd.Constant(x.Slice2DRows(lo, lo+per)))
		return autograd.SoftmaxCrossEntropy(out, labels[lo:lo+per])
	}
}

// elasticSerialParams trains the same model serially on the whole batch.
func elasticSerialParams(steps int, lr float64) []float64 {
	m := elasticModel()
	x, labels := elasticBatch()
	opt := optim.NewSGD(lr)
	for s := 0; s < steps; s++ {
		nn.ZeroGrads(m)
		out := m.(*nn.Sequential).Forward(autograd.Constant(x))
		loss := autograd.SoftmaxCrossEntropy(out, labels)
		loss.Backward(nil)
		opt.Step(m.Params())
	}
	return ddl.FlattenParams(m.Params())
}
