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

// Resilient checkpoint/restart training: the executable counterpart of
// the faults package's analytic models. A run is driven in checkpoint
// windows over a tiered in-memory checkpoint.Store, and two kinds of
// fault end a window early:
//
//   - a rank failure aborts the window before the failing step runs, and
//     the run continues on the shrunken world — the shrink-to-(N−k)
//     continuation the §IV-B full-machine runs relied on. Each rank's
//     shard is parameterized by the live world size, so the post-shrink
//     trajectory still optimizes the same global batch;
//   - a guard trip on a silently corrupted gradient (sdc.go) aborts the
//     window after that step's collective, before the optimizer applies
//     the corrupt gradient.
//
// Either way the run restores the newest restorable committed version
// and recomputes the lost steps.

// retainVersions is how many committed versions each tier keeps.
const retainVersions = 4

// ResilientConfig configures a resilient data-parallel run.
type ResilientConfig struct {
	// Ranks is the initial world size.
	Ranks int
	// Steps is the number of optimizer steps the run must commit.
	Steps int
	// CheckpointEvery is the commit cadence in steps (>= 1).
	CheckpointEvery int
	// FailAtStep maps a global step index to the number of ranks that die
	// at that step. Each entry fires once, when a window reaches its step.
	FailAtStep map[int]int
	// Tiers names the checkpoint tiers, shallowest first, of the run's
	// memory store (checkpoint.NewMemStore, 4 versions per tier). Every
	// commit drains through all of them.
	Tiers []string
	// Injections fire once each, in whatever window reaches their step.
	Injections []SDCInjection
	// Guards arms the detection sentinels. A run with a guard armed or a
	// gradient injection reduces over the checked ring's guard slot
	// (guardedReduce); any other run uses Rank.Step's in-place ring.
	Guards Guards
	// Obs, if non-nil, receives the run's window and lost-work spans, its
	// fault, fallback and commit events (track "elastic") and its
	// ddl.elastic.* counters on the executed-step clock.
	Obs *obs.Observer
	// StepTime is the simulated duration of one training step: executed
	// step k runs in [k·StepTime, (k+1)·StepTime). Zero disables spans
	// but keeps events and counters.
	StepTime units.Seconds
}

// ResilientResult accounts a resilient run.
type ResilientResult struct {
	StepsCommitted int
	StepsExecuted  int      // includes discarded steps and aborted detection steps
	LostSteps      int      // discarded by recoveries (including version-fallback redo)
	Rollbacks      int      // recoveries: rank failures, guard trips and version fallbacks
	Detections     int      // guard trips
	DetectedBy     []string // guard name per detection: "nan", "grad-norm", "abft"
	RestoredFrom   []string // tier name per recovery restore
	Checkpoints    int      // committed versions, including the initial one
	FinalRanks     int      // world size after all failures
	Losses         []float64
	FinalParams    []float64
}

// setFlatParams writes flat back into the parameters' values — the
// restore-side inverse of FlattenParams.
func setFlatParams(params []nn.Param, flat []float64) {
	off := 0
	for _, p := range params {
		d := p.Value.Data.Data()
		copy(d, flat[off:off+len(d)])
		off += len(d)
	}
	if off != len(flat) {
		panic(fmt.Sprintf("ddl: flat parameter length %d vs parameters %d", len(flat), off))
	}
}

// RunResilient executes a data-parallel run under injected rank failures
// and silent corruptions. newModel must build the same initial model on
// every call and newOpt a stateless optimizer (only parameters are
// checkpointed, so use plain SGD when bitwise resume equivalence
// matters). lossFn builds rank `rank`'s loss for global step `step` on a
// world of `world` ranks, so callers re-shard the global batch as the
// world shrinks.
//
// Every window restores the newest restorable committed version once,
// hands each rank its flat state, and trains through Rank.Step. A window
// that ends commits and drains. Storage injections damage committed
// versions, which surfaces as restores falling through to deeper tiers —
// or to an older version, redoing the lost window — on the next restore.
// A failure at step f loses the f − done steps its window ran; a
// detection at step d loses d − done + 1, since the aborted step ran its
// compute.
func RunResilient(cfg ResilientConfig,
	newModel func() nn.Module,
	newOpt func() optim.Optimizer,
	lossFn func(rank, world, step int, m nn.Module) *autograd.Value) (*ResilientResult, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("ddl: resilient run needs at least one rank")
	}
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("ddl: resilient run needs at least one step")
	}
	if cfg.CheckpointEvery < 1 {
		return nil, fmt.Errorf("ddl: checkpoint cadence must be >= 1")
	}
	if len(cfg.Tiers) < 1 {
		return nil, fmt.Errorf("ddl: resilient run needs at least one checkpoint tier")
	}
	// Pending failures in step order, consumed as they fire.
	type failure struct{ step, ranks int }
	var failures []failure
	for s, k := range cfg.FailAtStep {
		if s < 0 || s >= cfg.Steps {
			return nil, fmt.Errorf("ddl: failure step %d outside run of %d steps", s, cfg.Steps)
		}
		if k < 1 {
			return nil, fmt.Errorf("ddl: failure at step %d loses %d ranks", s, k)
		}
		failures = append(failures, failure{s, k})
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].step < failures[j].step })
	slot := cfg.Guards != (Guards{})
	for _, inj := range cfg.Injections {
		if inj.Step < 0 || inj.Step >= cfg.Steps {
			return nil, fmt.Errorf("ddl: injection step %d outside run of %d steps", inj.Step, cfg.Steps)
		}
		if inj.Kind.gradient() && (inj.Rank < 0 || inj.Rank >= cfg.Ranks) {
			return nil, fmt.Errorf("ddl: injection rank %d outside world of %d", inj.Rank, cfg.Ranks)
		}
		if inj.Kind == TornDrain && len(cfg.Tiers) < 2 {
			return nil, fmt.Errorf("ddl: torn-drain injection needs a second tier")
		}
		slot = slot || inj.Kind.gradient()
	}
	// Every recovery counts against this bound: exceeding it is an error
	// (no forward progress), not a hang.
	maxRollbacks := 4 + 2*len(cfg.Injections) + len(cfg.FailAtStep)

	store := checkpoint.NewMemStore(cfg.Tiers, retainVersions)
	defer store.Close()
	// Version 1 is the initial state, drained everywhere so the deepest
	// tier always holds a restore point. ref receives every restore.
	version := 1
	ref := newModel()
	refParams := ref.Params()
	if err := store.Save(ref, version); err != nil {
		return nil, err
	}
	if err := store.DrainAll(version); err != nil {
		return nil, err
	}
	stepOfVersion := map[int]int{version: 0}
	res := &ResilientResult{Checkpoints: 1, FinalRanks: cfg.Ranks}
	now := func() units.Seconds { return units.Seconds(res.StepsExecuted) * cfg.StepTime }
	rollback := func(lost int) error {
		res.Rollbacks++
		res.LostSteps += lost
		cfg.Obs.Inc("ddl.elastic.rollbacks")
		cfg.Obs.Add("ddl.elastic.lost_steps", int64(lost))
		if res.Rollbacks > maxRollbacks {
			return fmt.Errorf("ddl: resilient run exceeded %d rollbacks without progress", maxRollbacks)
		}
		return nil
	}

	fired := make([]bool, len(cfg.Injections))
	recovering := false
	for {
		info, err := store.Restore(ref)
		if err != nil {
			return nil, fmt.Errorf("ddl: resilient restore: %w", err)
		}
		done, ok := stepOfVersion[info.Version]
		if !ok {
			return nil, fmt.Errorf("ddl: restored unknown version %d", info.Version)
		}
		if recovering {
			res.RestoredFrom = append(res.RestoredFrom, info.TierName)
			recovering = false
		}
		if done < res.StepsCommitted {
			// The newest commit was unrestorable on every tier: we fell
			// back to an older version and must redo its window.
			res.RestoredFrom = append(res.RestoredFrom, info.TierName)
			res.Losses = res.Losses[:done]
			cfg.Obs.Event("elastic", "ckpt", "version-fallback", now(),
				obs.Num("from_step", float64(res.StepsCommitted)), obs.Num("to_step", float64(done)),
				obs.Str("tier", info.TierName))
			if err := rollback(res.StepsCommitted - done); err != nil {
				return nil, err
			}
			res.StepsCommitted = done
		}
		if done >= cfg.Steps {
			res.FinalParams = FlattenParams(refParams)
			return res, nil
		}

		windowEnd := min(done+cfg.CheckpointEvery, cfg.Steps)
		// The earliest pending failure inside this window aborts it before
		// its step runs.
		runTo, failAt := windowEnd, -1
		if len(failures) > 0 && failures[0].step < windowEnd {
			failAt = failures[0].step
			runTo = failAt
		}
		world := res.FinalRanks
		restored := FlattenParams(refParams)
		losses := make([]float64, runTo-done)
		detStep, detBy := -1, ""
		var trained nn.Module
		mp.NewWorld(world).Run(func(c *mp.Comm) {
			s := done
			var rcfg Config
			tripped := ""
			if slot {
				// Flip this step's unfired gradient injections aimed at this
				// rank: compute-stage flips land on the gradient before the
				// guard is sealed, wire-stage ones via the tamper hook after.
				flip := func(kind SDCKind, data []float64) {
					for i, inj := range cfg.Injections {
						if !fired[i] && inj.Kind == kind && inj.Step == s && inj.Rank == c.Rank() {
							j := inj.Word % len(data)
							data[j] = flipBit(data[j], inj.Bit)
						}
					}
				}
				tamper := func(_ int, data []float64) { flip(WireFlip, data) }
				rcfg.Allreduce = func(c *mp.Comm, g []float64) []float64 {
					flip(GradFlip, g)
					var reduced []float64
					reduced, tripped = guardedReduce(c, g, cfg.Guards, tamper)
					return reduced
				}
			}
			r := NewRank(c, newModel(), newOpt(), rcfg)
			setFlatParams(r.params, restored)
			loss := func(int) *autograd.Value { return lossFn(c.Rank(), world, s, r.Model) }
			for ; s < runTo; s++ {
				l := r.Step(loss)
				if tripped != "" {
					// Every rank computes the same verdict from the same
					// reduced vector, and Step applied nothing: all abort
					// the window here.
					if c.Rank() == 0 {
						detStep, detBy = s, tripped
					}
					return
				}
				if c.Rank() == 0 {
					losses[s-done] = l
				}
			}
			if c.Rank() == 0 {
				// Replicas are identical after the final allreduce, so rank
				// 0's state is canonical.
				trained = r.Model
			}
		})

		ranTo := runTo
		if detStep >= 0 {
			ranTo = detStep + 1
		}
		windowStart := now()
		res.StepsExecuted += ranTo - done
		if ranTo > done && cfg.StepTime > 0 {
			cfg.Obs.Span("elastic", "train", "window", windowStart,
				units.Seconds(ranTo-done)*cfg.StepTime,
				obs.Num("from_step", float64(done)), obs.Num("to_step", float64(ranTo)),
				obs.Num("world", float64(world)))
		}
		// Consume-once accounting: a gradient injection fired if its step
		// ran; anything still pending re-fires during the recompute.
		for i, inj := range cfg.Injections {
			if inj.Kind.gradient() && inj.Step < ranTo {
				fired[i] = true
			}
		}

		if detStep >= 0 || failAt >= 0 {
			// Window aborted: its executed steps are lost, and the next
			// iteration restores the last restorable commit.
			if ranTo > done && cfg.StepTime > 0 {
				cfg.Obs.Span("elastic", "fault", "lost-work", windowStart, now()-windowStart,
					obs.Num("steps", float64(ranTo-done)))
			}
			if detStep >= 0 {
				res.Detections++
				res.DetectedBy = append(res.DetectedBy, detBy)
				cfg.Obs.Event("elastic", "fault", "sdc-detected", now(),
					obs.Num("step", float64(detStep)), obs.Str("guard", detBy))
				cfg.Obs.Inc("ddl.elastic.detections")
			} else {
				lost := failures[0].ranks
				failures = failures[1:]
				res.FinalRanks -= lost
				if res.FinalRanks < 1 {
					return nil, fmt.Errorf("ddl: failure at step %d leaves no survivors", failAt)
				}
				cfg.Obs.Event("elastic", "fault", "rank-failure", now(),
					obs.Num("step", float64(failAt)), obs.Num("lost_ranks", float64(lost)))
				cfg.Obs.Event("elastic", "fault", "elastic-shrink", now(),
					obs.Num("world", float64(res.FinalRanks)))
			}
			if err := rollback(ranTo - done); err != nil {
				return nil, err
			}
			recovering = true
			continue
		}

		res.Losses = append(res.Losses, losses...)
		res.StepsCommitted = windowEnd
		version++
		if err := store.Save(trained, version); err != nil {
			return nil, fmt.Errorf("ddl: resilient commit: %w", err)
		}
		stepOfVersion[version] = windowEnd
		res.Checkpoints++
		cfg.Obs.Event("elastic", "ckpt", "checkpoint-commit", now(),
			obs.Num("steps_committed", float64(windowEnd)))
		cfg.Obs.Inc("ddl.elastic.checkpoints")

		// Storage injections covering this window fire on its commit.
		// Drain to the deeper tiers — unless a stale-replica injection
		// loses this version's drain entirely.
		var damage []SDCInjection
		stale := false
		for i, inj := range cfg.Injections {
			if !fired[i] && !inj.Kind.gradient() && inj.Step < windowEnd {
				fired[i] = true
				damage = append(damage, inj)
				stale = stale || inj.Kind == StaleDrain
			}
		}
		if !stale {
			if err := store.DrainAll(version); err != nil {
				return nil, fmt.Errorf("ddl: resilient drain: %w", err)
			}
		}
		for _, inj := range damage {
			switch inj.Kind {
			case CkptFlip:
				if err := store.CorruptVersion(0, version, byte(1<<uint(inj.Bit&7))); err != nil {
					return nil, fmt.Errorf("ddl: ckpt-flip injection: %w", err)
				}
				cfg.Obs.Inc("ddl.elastic.injected.ckpt_flips")
			case TornDrain:
				if err := store.TruncateVersion(1, version, 0.5); err != nil {
					return nil, fmt.Errorf("ddl: torn-drain injection: %w", err)
				}
				cfg.Obs.Inc("ddl.elastic.injected.torn_drains")
			case StaleDrain:
				cfg.Obs.Inc("ddl.elastic.injected.stale_replicas")
			}
		}
	}
}
