package main

import (
	"fmt"
	"math"
	"time"

	"summitscale/internal/autograd"
	"summitscale/internal/ddl"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// lossFn builds one step's loss graph in the rank's arena.
type lossFn func(a *tensor.Arena) *autograd.Value

// trainSpec is one training workload.
type trainSpec struct {
	ranks        int
	warmup       int     // set-up steps before the timed phase
	block        int     // ops per traced or untraced block of a --trace 1 run
	stepsPerS    float64 // nominal rank-0 step rate on 2 vCPUs; sizes the run
	itemsPerStep int     // global batch
	gemmFlop     float64 // computed GEMM work of one rank-0 step
	// setUp builds one rank's job on the rank's goroutine. Only a
	// one-rank workload may fail here: a rank that gives up would leave
	// its peers blocked in their first allreduce.
	setUp func(c *mp.Comm) (*rankJob, error)
}

// rankJob is what a workload hands the training loop for one rank.
type rankJob struct {
	model nn.Module
	opt   optim.Optimizer
	// batch builds the batch of a step, counted from the first warm-up
	// step, and returns the closure that turns it into a loss graph.
	batch func(step int) lossFn
	// commit, if set, runs on rank 0 after timed step step, inside the op.
	commit func(step int, tr *tracer) error
	// flush, if set, runs on rank 0 after the last op, inside the timed
	// phase.
	flush func(tr *tracer) error
	// finish is the end-of-run check, called on every rank; only rank 0's
	// verdict counts.
	finish func(c *mp.Comm) error
	close  func()
}

// trainRun holds one training run's records. Rank 0 writes the scalar
// fields; each rank writes its own element of bad and warmBad.
type trainRun struct {
	spec  trainSpec
	steps int
	tr    *tracer

	setupS     []float64
	opMs       []float64
	losses     []float64 // rank 0, warm-up and timed steps
	wall       time.Duration
	modeWall   [2]time.Duration // untraced, traced ops of a --trace 1 run
	modeOps    [2]int
	rt         [2]runtimeSample
	sent, msgs int64 // mp traffic of the timed phase
	rssMB      float64
	bad        [][]bool // per rank, per timed op
	warmBad    []bool   // per rank: a warm-up loss was not finite
	checks     []string
}

// fixedSteps sizes a run: the step count, not the clock, ends it, so the
// loss trajectory depends only on the seed and --seconds. It is a
// multiple of unit.
func fixedSteps(seconds, stepsPerS float64, unit int) int {
	n := int(math.Round(seconds*stepsPerS/float64(unit))) * unit
	return max(n, unit)
}

func runTraining(cfg runConfig, spec trainSpec) (*outcome, error) {
	t := &trainRun{spec: spec, steps: fixedSteps(cfg.seconds, spec.stepsPerS, 2*spec.block)}
	if cfg.trace {
		t.tr = newTracer()
	}
	t.bad = make([][]bool, spec.ranks)
	t.warmBad = make([]bool, spec.ranks)
	for rep := 0; rep < setupReps; rep++ {
		world := mp.NewWorld(spec.ranks)
		errs := make([]error, spec.ranks)
		last := rep == setupReps-1
		t0 := time.Now()
		world.Run(func(c *mp.Comm) {
			errs[c.Rank()] = t.rank(c, world, t0, last)
		})
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	return t.outcome(), nil
}

// rank is one rank's set-up and, on the last set-up, its timed phase.
func (t *trainRun) rank(c *mp.Comm, world *mp.World, t0 time.Time, last bool) error {
	rank0 := c.Rank() == 0
	var tr *tracer
	if rank0 {
		tr = t.tr
	}
	job, err := t.spec.setUp(c)
	if err != nil {
		return err
	}
	if job.close != nil {
		defer job.close()
	}
	var dcfg ddl.Config
	opt := job.opt
	if t.tr != nil {
		// Traced runs time the collective and the optimizer through
		// wrappers; untraced runs use ddl's defaults untouched.
		dcfg.Allreduce = func(c *mp.Comm, g []float64) []float64 {
			i := tr.begin("mp.allreduce")
			defer tr.end(i)
			return c.AllReduceRing(g)
		}
		opt = tracedOptimizer{opt, tr}
	}
	r := ddl.NewRank(c, job.model, opt, dcfg)
	step := func(gs int) float64 {
		b := tr.begin("data.batch")
		build := job.batch(gs)
		tr.end(b)
		s := tr.begin("ddl.step")
		defer tr.end(s)
		return r.Step(func(int) *autograd.Value {
			f := tr.begin("nn.forward")
			defer tr.end(f)
			return build(r.Arena())
		})
	}

	var losses []float64
	for gs := 0; gs < t.spec.warmup; gs++ {
		l := step(gs)
		t.warmBad[c.Rank()] = t.warmBad[c.Rank()] || !finite(l)
		losses = append(losses, l)
	}
	if rank0 {
		t.setupS = append(t.setupS, time.Since(t0).Seconds())
	}
	if !last {
		return nil
	}
	if rank0 {
		t.losses = losses
		// Every warm-up message has been sent once rank 0 has left the
		// last warm-up allreduce: with at most two ranks, each message
		// goes to rank 0 or comes from it.
		t.sent, t.msgs = world.BytesSent(), world.MessagesSent()
		t.rt[0] = readRuntime()
	}

	bad := make([]bool, t.steps)
	start := time.Now()
	for s := 0; s < t.steps; s++ {
		mode := 0
		if tr != nil {
			tr.on, tr.op = tracedBlock(s, t.spec.block), s
			if tr.on {
				mode = 1
			}
		}
		o0 := time.Now()
		op := tr.begin("op")
		loss := step(t.spec.warmup + s)
		var err error
		if rank0 && job.commit != nil {
			err = job.commit(s, tr)
		}
		tr.end(op)
		d := time.Since(o0)
		bad[s] = !stepOK(loss, err)
		if rank0 {
			t.opMs = append(t.opMs, ms(d))
			t.losses = append(t.losses, loss)
			t.modeWall[mode] += d
			t.modeOps[mode]++
			if err != nil {
				fmt.Printf("perfbench: commit after op %d failed: %v\n", s, err)
			}
		}
	}
	if rank0 {
		if job.flush != nil {
			if err := job.flush(tr); err != nil {
				bad[t.steps-1] = true
				fmt.Printf("perfbench: final drain failed: %v\n", err)
			}
		}
		t.wall = time.Since(start)
		t.rt[1] = readRuntime()
		t.sent, t.msgs = world.BytesSent()-t.sent, world.MessagesSent()-t.msgs
		t.rssMB, err = peakRSSMB()
		if err != nil {
			return err
		}
	}
	t.bad[c.Rank()] = bad
	if tr != nil {
		tr.on = false
	}
	if job.finish != nil {
		if err := job.finish(c); err != nil && rank0 {
			t.checks = append(t.checks, err.Error())
		}
	}
	return nil
}

// stepOK is the per-op correctness gate of training: the loss is finite
// and any checkpoint commit succeeded.
func stepOK(loss float64, commitErr error) bool { return finite(loss) && commitErr == nil }

// outcome turns the records into metrics.
func (t *trainRun) outcome() *outcome {
	o := &outcome{attempted: t.steps, checks: t.checks, metrics: map[string]float64{}, tracer: t.tr}
	for r, bad := range t.warmBad {
		if bad {
			o.fail("rank %d: non-finite loss during warm-up", r)
		}
	}
	for s := 0; s < t.steps; s++ {
		for _, bad := range t.bad {
			if bad[s] {
				o.failed++
				break
			}
		}
	}
	items := t.steps * t.spec.itemsPerStep
	timed := t.losses[t.spec.warmup:]
	lossFinal := stats.Mean(timed[len(timed)-len(timed)/5:])
	m := o.metrics
	m["setup_s"] = median(t.setupS)
	m["items_per_s"] = medianOpRate(t.spec.itemsPerStep, t.opMs)
	m["op_ms_p50"] = median(t.opMs)
	m["peak_rss_mb"] = t.rssMB
	m["loss_final"] = lossFinal

	fmt.Printf("perfbench: %d ops of %d items, %d warm-up steps; op_ms p50 %.4f", t.steps, t.spec.itemsPerStep, t.spec.warmup, m["op_ms_p50"])
	if p90, ok := tailP90(t.opMs); ok {
		fmt.Printf(" p90 %.4f", p90)
	}
	fmt.Printf(" (n=%d); whole-phase rate %.1f items/s\n", len(t.opMs), itemsPerSecond(items, t.wall))
	fmt.Printf("perfbench: loss_final %.6g over the last %d steps; loss trajectory fnv64a %016x\n",
		lossFinal, len(timed)/5, lossHash(t.losses))
	fmt.Printf("perfbench: mp traffic %d B in %d messages\n", t.sent, t.msgs)

	if t.tr == nil {
		return o
	}
	rows := layerTable(t.tr.spans)
	ops := float64(t.modeOps[1])
	perOp := func(name string) float64 { return ms(layer(rows, name).self) / ops }
	perCall := func(name string) float64 {
		r := layer(rows, name)
		if r.count == 0 {
			return 0
		}
		return ms(r.self) / float64(r.count)
	}
	m["nn.forward_ms"] = perOp("nn.forward")
	m["ddl.step_self_ms"] = perOp("ddl.step")
	m["mp.allreduce_ms"] = perOp("mp.allreduce")
	m["optim.step_ms"] = perOp("optim.step")
	m["data.batch_ms"] = perOp("data.batch")
	m["checkpoint.save_ms"] = perCall("checkpoint.save")
	m["checkpoint.drain_wait_ms"] = perCall("checkpoint.drain_wait")
	m["tensor.gemm_gflop"] = t.spec.gemmFlop / 1e9
	m["tensor.gemm_gflops"] = t.spec.gemmFlop / 1e9 / ((m["nn.forward_ms"] + m["ddl.step_self_ms"]) / 1e3)
	m["mp.allreduce_bytes"] = float64(t.sent) / float64(t.steps)
	m["mp.messages"] = float64(t.msgs) / float64(t.steps)
	runtimePerItem(m, t.rt[0], t.rt[1], items)
	traced := itemsPerSecond(t.modeOps[1]*t.spec.itemsPerStep, t.modeWall[1])
	untraced := itemsPerSecond(t.modeOps[0]*t.spec.itemsPerStep, t.modeWall[0])
	m["trace.items_per_s"] = traced
	m["trace.untraced_items_per_s"] = untraced
	m["trace.overhead_frac"] = 1 - traced/untraced
	return o
}

// tracedOptimizer times the optimizer update of a traced run.
type tracedOptimizer struct {
	optim.Optimizer
	tr *tracer
}

func (o tracedOptimizer) Step(params []nn.Param) {
	i := o.tr.begin("optim.step")
	defer o.tr.end(i)
	o.Optimizer.Step(params)
}
