package ddl

import (
	"fmt"
	"sort"

	"summitscale/internal/autograd"
	"summitscale/internal/checkpoint"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/optim"
	"summitscale/internal/units"
)

// Elastic checkpoint/restart training: the executable counterpart of the
// faults package's analytic model. A run is driven in checkpoint windows;
// an injected rank failure discards the window's uncommitted steps,
// restores every surviving rank from the last committed checkpoint (a
// one-tier in-memory checkpoint.Store), and continues on the shrunken
// world — the shrink-to-(N−k) continuation the §IV-B full-machine runs
// relied on.
// Because each rank's gradient shard is parameterized by the live world
// size, the post-shrink trajectory still optimizes the same global batch,
// so elastic runs are testable against uninterrupted training.

// ElasticConfig configures a resilient data-parallel run.
type ElasticConfig struct {
	// Ranks is the initial world size.
	Ranks int
	// Steps is the number of optimizer steps the run must commit.
	Steps int
	// CheckpointEvery is the commit cadence in steps (>= 1).
	CheckpointEvery int
	// FailAtStep maps a global step index to the number of ranks that die
	// at that step. Steps since the last checkpoint are lost and re-run.
	// Each entry fires once.
	FailAtStep map[int]int
	// RepairAtStep maps a global step index to the number of repaired
	// ranks that become available again at that step. Repaired ranks
	// rejoin at the next checkpoint boundary — never mid-window, so the
	// restored world always resumes from a committed state and the run
	// reproduces the serial reference trajectory. Each entry fires once.
	RepairAtStep map[int]int
	// Config is the per-rank ddl configuration (compression, allreduce).
	Config Config
	// Obs, if non-nil, receives the run's window spans, checkpoint-commit
	// and rank-failure/elastic-shrink events, and restore/lost-step
	// counters on the executed-step clock (track "elastic").
	Obs *obs.Observer
	// StepTime is the simulated duration of one training step, placing the
	// elastic run's spans on a clock (executed step k runs in
	// [k·StepTime, (k+1)·StepTime)). Zero disables spans but keeps
	// counters.
	StepTime units.Seconds
}

// ElasticResult accounts a resilient run.
type ElasticResult struct {
	StepsCommitted int // optimizer steps that made it into a checkpointed state
	StepsExecuted  int // total steps run, including ones later discarded
	LostSteps      int // steps discarded by failures (lost work)
	Restores       int // checkpoint restores performed
	Checkpoints    int // committed checkpoints (including the initial one)
	FinalRanks     int // world size after all failures and regrows
	Regrows        int // grow-back events (repaired ranks rejoining)
	// WorldSizes records the live world size of every executed step, in
	// execution order (including steps later discarded) — the input to
	// elastic-throughput accounting: a shrunken world runs the same global
	// batch over fewer ranks, so each of its steps takes proportionally
	// longer.
	WorldSizes []int
	// Losses holds the committed per-step mean loss of rank 0.
	Losses []float64
	// FinalParams is the flattened committed model state.
	FinalParams []float64
}

// RunElastic executes a data-parallel training run under injected rank
// failures. newModel must deterministically build the same initial model
// on every call; newOpt the optimizer (note: only model parameters are
// checkpointed, so use stateless optimizers — e.g. plain SGD — when
// bitwise resume equivalence matters). lossFn builds rank `rank`'s loss
// for one micro-batch given the live world size, so callers re-shard the
// global batch as the world shrinks.
func RunElastic(cfg ElasticConfig,
	newModel func() nn.Module,
	newOpt func() optim.Optimizer,
	lossFn func(rank, world, step, micro int, m nn.Module) *autograd.Value) (*ElasticResult, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("ddl: elastic run needs at least one rank")
	}
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("ddl: elastic run needs at least one step")
	}
	if cfg.CheckpointEvery < 1 {
		return nil, fmt.Errorf("ddl: checkpoint cadence must be >= 1")
	}
	// Commit the initial state so the first window has a restore point.
	// Each restore runs every check of the format (size, section and
	// whole-file CRCs, shape) on the one committed version.
	store := checkpoint.NewMemStore([]string{"elastic"}, 1)
	version := 1
	if err := store.Save(newModel(), version); err != nil {
		return nil, err
	}
	res := &ElasticResult{Checkpoints: 1, FinalRanks: cfg.Ranks}

	// Pending failures in step order, consumed as they fire.
	type failure struct{ step, ranks int }
	var pending []failure
	for s, k := range cfg.FailAtStep {
		if s < 0 || s >= cfg.Steps {
			return nil, fmt.Errorf("ddl: failure step %d outside run of %d steps", s, cfg.Steps)
		}
		if k < 1 {
			return nil, fmt.Errorf("ddl: failure at step %d loses %d ranks", s, k)
		}
		pending = append(pending, failure{s, k})
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].step < pending[j].step })

	// Pending repairs in step order; each rejoins at the next checkpoint
	// boundary at or after its step.
	var repairs []failure
	for s, k := range cfg.RepairAtStep {
		if s < 0 || s >= cfg.Steps {
			return nil, fmt.Errorf("ddl: repair step %d outside run of %d steps", s, cfg.Steps)
		}
		if k < 1 {
			return nil, fmt.Errorf("ddl: repair at step %d restores %d ranks", s, k)
		}
		repairs = append(repairs, failure{s, k})
	}
	sort.Slice(repairs, func(i, j int) bool { return repairs[i].step < repairs[j].step })

	ranks := cfg.Ranks
	done := 0 // committed steps
	for done < cfg.Steps {
		// Grow-back: repaired ranks whose repair step has been reached
		// rejoin here, at the committed-state boundary, before the next
		// window is planned. They load the same checkpoint every surviving
		// rank resumes from, so growth never perturbs the trajectory.
		for len(repairs) > 0 && repairs[0].step <= done {
			ranks += repairs[0].ranks
			res.Regrows++
			res.FinalRanks = ranks
			cfg.Obs.Event("elastic", "repair", "elastic-grow",
				units.Seconds(res.StepsExecuted)*cfg.StepTime,
				obs.Num("step", float64(done)), obs.Num("restored_ranks", float64(repairs[0].ranks)),
				obs.Num("world", float64(ranks)))
			cfg.Obs.Inc("ddl.elastic.regrows")
			repairs = repairs[1:]
		}
		windowEnd := done + cfg.CheckpointEvery
		if windowEnd > cfg.Steps {
			windowEnd = cfg.Steps
		}
		// The earliest pending failure inside this window aborts it.
		failAt, lost := -1, 0
		if len(pending) > 0 && pending[0].step < windowEnd {
			failAt, lost = pending[0].step, pending[0].ranks
			pending = pending[1:]
		}
		runTo := windowEnd
		if failAt >= 0 {
			runTo = failAt
		}

		windowStart := units.Seconds(res.StepsExecuted) * cfg.StepTime
		losses := make([]float64, runTo-done)
		if runTo > done {
			if cfg.StepTime > 0 {
				cfg.Obs.Span("elastic", "train", "window", windowStart,
					units.Seconds(runTo-done)*cfg.StepTime,
					obs.Num("from_step", float64(done)), obs.Num("to_step", float64(runTo)),
					obs.Num("world", float64(ranks)))
			}
			start := done
			w := mp.NewWorld(ranks)
			world := ranks
			w.Run(func(c *mp.Comm) {
				m := newModel()
				if _, err := store.Restore(m); err != nil {
					panic(fmt.Sprintf("ddl: elastic restore: %v", err))
				}
				r := NewRank(c, m, newOpt(), cfg.Config)
				for s := start; s < runTo; s++ {
					loss := r.Step(func(micro int) *autograd.Value {
						return lossFn(c.Rank(), world, s, micro, m)
					})
					if c.Rank() == 0 {
						losses[s-start] = loss
					}
				}
				if c.Rank() == 0 && failAt < 0 {
					// Commit the window. Replicas are identical after the
					// final allreduce, so rank 0's state is canonical.
					if err := store.Save(m, version+1); err != nil {
						panic(fmt.Sprintf("ddl: elastic commit: %v", err))
					}
				}
			})
			res.StepsExecuted += runTo - done
			for s := done; s < runTo; s++ {
				res.WorldSizes = append(res.WorldSizes, world)
			}
		}

		windowEndAt := units.Seconds(res.StepsExecuted) * cfg.StepTime
		if failAt >= 0 {
			// Window aborted: uncommitted steps are lost, survivors
			// restore from the last commit and the world shrinks.
			res.LostSteps += runTo - done
			res.Restores++
			ranks -= lost
			if ranks < 1 {
				return nil, fmt.Errorf("ddl: failure at step %d leaves no survivors", failAt)
			}
			res.FinalRanks = ranks
			cfg.Obs.Event("elastic", "fault", "rank-failure", windowEndAt,
				obs.Num("step", float64(failAt)), obs.Num("lost_ranks", float64(lost)))
			cfg.Obs.Event("elastic", "fault", "elastic-shrink", windowEndAt,
				obs.Num("world", float64(ranks)))
			if runTo > done && cfg.StepTime > 0 {
				cfg.Obs.Span("elastic", "fault", "lost-work", windowStart,
					windowEndAt-windowStart, obs.Num("steps", float64(runTo-done)))
			}
			cfg.Obs.Inc("ddl.elastic.restores")
			cfg.Obs.Add("ddl.elastic.lost_steps", int64(runTo-done))
			continue
		}
		version++ // rank 0 committed it
		res.Losses = append(res.Losses, losses...)
		res.StepsCommitted = windowEnd
		res.Checkpoints++
		cfg.Obs.Event("elastic", "ckpt", "checkpoint-commit", windowEndAt,
			obs.Num("steps_committed", float64(windowEnd)))
		cfg.Obs.Inc("ddl.elastic.checkpoints")
		done = windowEnd
	}

	final := newModel()
	if _, err := store.Restore(final); err != nil {
		return nil, err
	}
	res.FinalParams = FlattenParams(final.Params())
	return res, nil
}

// SimulatedWall accounts the run's simulated wall time given the global
// batch size and the compute time of one sample on one rank: an executed
// step on a world of w ranks processes batch/w samples per rank, so a
// shrunken world pays proportionally more per step — the quantity the
// grow-back policy exists to win back. Discarded (lost) steps still cost
// their wall time.
func (r *ElasticResult) SimulatedWall(batch int, perSample units.Seconds) units.Seconds {
	if batch < 1 || perSample < 0 {
		panic(fmt.Sprintf("ddl: simulated wall needs a positive batch and non-negative per-sample time (batch %d, perSample %v)", batch, perSample))
	}
	var wall units.Seconds
	for _, w := range r.WorldSizes {
		wall += perSample * units.Seconds(float64(batch)/float64(w))
	}
	return wall
}
