package ddl

import (
	"fmt"
	"math"
	"strings"

	"summitscale/internal/autograd"
	"summitscale/internal/checkpoint"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/optim"
	"summitscale/internal/units"
)

// Silent-data-corruption injection and guarded training: the executable
// counterpart of the faults package's SDC event classes. RunGuarded
// drives a data-parallel run in checkpoint windows over a multi-tier
// in-memory checkpoint.Store, injects bit flips into gradients (in
// compute or on the wire) and damage into committed checkpoints (flips
// at rest, torn drains, stale replicas), detects the gradient
// corruptions with configurable guards — NaN sentinel, gradient-norm
// limit, and the ABFT element-sum checksum carried through the mp ring
// allreduce — and recovers by rolling back to the newest restorable
// checkpoint and recomputing. Because injections fire exactly once and
// the optimizer is rebuilt from committed state each window, the
// recomputed trajectory is bit-identical to an undisturbed run.

// SDCKind classifies an injected silent corruption.
type SDCKind int

// The injection classes. GradFlip corrupts a rank's local gradient
// before the ABFT guard is sealed (compute-stage corruption: only the
// NaN and norm sentinels can see it); WireFlip corrupts it after the
// guard is sealed (in-transit corruption: exactly what the checksum
// exists to catch). The storage kinds fire against the commit covering
// their step: CkptFlip flips a byte of the tier-0 file at rest,
// TornDrain truncates the tier-1 replica mid-copy, StaleDrain loses the
// drain entirely so deeper tiers keep serving the previous version.
const (
	GradFlip SDCKind = iota
	WireFlip
	CkptFlip
	TornDrain
	StaleDrain
)

// String names the kind.
func (k SDCKind) String() string {
	switch k {
	case GradFlip:
		return "grad-flip"
	case WireFlip:
		return "wire-flip"
	case CkptFlip:
		return "ckpt-flip"
	case TornDrain:
		return "torn-drain"
	case StaleDrain:
		return "stale-replica"
	default:
		return fmt.Sprintf("SDCKind(%d)", int(k))
	}
}

// SDCInjection is one silent corruption to inject. Each injection fires
// exactly once — a window recomputed after detection re-runs clean,
// which is what makes recovery provable against an undisturbed run.
type SDCInjection struct {
	Step int     // training step (gradient kinds) or committed step (storage kinds) it fires at
	Kind SDCKind // what to corrupt
	Rank int     // target rank, for the gradient kinds
	Word int     // flat-gradient index to flip (mod gradient length)
	Bit  int     // bit to flip, 0..63
}

// Guards selects the detection sentinels. The zero value disables all
// detection — the ablation's "detection off" arm.
type Guards struct {
	// NaN aborts the step if any element of the reduced gradient is
	// non-finite.
	NaN bool
	// GradNormLimit aborts the step if the reduced gradient's L2 norm
	// exceeds it; zero disables. This is what catches compute-stage
	// exponent flips that stay finite.
	GradNormLimit float64
	// ABFT verifies the element-sum checksum carried through the ring
	// allreduce (mp.AllReduceRingChecked); ABFTTol <= 0 selects
	// mp.DefaultABFTTol.
	ABFT    bool
	ABFTTol float64
}

// GuardedConfig configures a guarded run.
type GuardedConfig struct {
	Ranks           int
	Steps           int
	CheckpointEvery int
	// Tiers names the checkpoint tiers, shallowest first, of the run's
	// memory store (checkpoint.NewMemStore); Retain <= 0 keeps 4
	// versions per tier.
	Tiers  []string
	Retain int
	// Injections fire once each, in whatever window covers their step.
	Injections []SDCInjection
	Guards     Guards
	// MaxRollbacks bounds detection-triggered recomputes; <= 0 means
	// 4 + 2·len(Injections). Exceeding it is an error (no forward
	// progress), not a hang.
	MaxRollbacks int
	// Obs, if non-nil, receives detection/rollback/commit events and
	// ddl.sdc.* counters on the executed-step clock.
	Obs      *obs.Observer
	StepTime units.Seconds
}

// GuardedResult accounts a guarded run.
type GuardedResult struct {
	StepsCommitted int
	StepsExecuted  int      // includes steps later discarded and aborted detection steps
	LostSteps      int      // discarded by rollbacks (including storage-fallback redo)
	Detections     int      // guard trips
	DetectedBy     []string // guard name per detection: "nan", "grad-norm", "abft"
	Rollbacks      int      // recoveries performed (detection- or storage-driven)
	RestoredFrom   []string // tier name per recovery restore
	Checkpoints    int      // committed versions, including the initial one
	Losses         []float64
	FinalParams    []float64
	FinalVersion   int
	FinalTier      string // tier the final state was restored from
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

// flipBit returns v with one bit of its IEEE 754 representation flipped.
func flipBit(v float64, bit int) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ 1<<uint(bit&63))
}

// reduceWithGuardSlot runs the ring allreduce with the ABFT guard slot
// attached but NOT enforced: same arithmetic as AllReduceRingChecked
// (the extra element shifts chunk boundaries, so this is load-bearing
// for bit-comparability), verdict discarded. Detection-off runs use it
// so the ablation compares like-for-like trajectories.
func reduceWithGuardSlot(c *mp.Comm, g []float64, tamper mp.TamperFunc) []float64 {
	guarded := make([]float64, len(g)+1)
	copy(guarded, g)
	var local float64
	for _, v := range g {
		local += v
	}
	guarded[len(g)] = local
	if tamper != nil {
		tamper(c.Rank(), guarded[:len(g)])
	}
	red := c.AllReduceRing(guarded)
	return red[:len(g)]
}

// guardedReduce reduces g with whatever guards are armed and returns the
// reduced gradient plus the name of the guard that tripped ("" = clean).
// The reduced vector is identical on every rank, so the verdict is too.
func guardedReduce(c *mp.Comm, g []float64, guards Guards, tamper mp.TamperFunc) ([]float64, string) {
	var reduced []float64
	if guards.ABFT {
		red, err := c.AllReduceRingChecked(g, guards.ABFTTol, tamper)
		if err != nil {
			if strings.Contains(err.Error(), "non-finite") {
				return nil, "nan"
			}
			return nil, "abft"
		}
		reduced = red
	} else {
		reduced = reduceWithGuardSlot(c, g, tamper)
	}
	if guards.NaN {
		for _, v := range reduced {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, "nan"
			}
		}
	}
	if guards.GradNormLimit > 0 {
		var ss float64
		for _, v := range reduced {
			ss += v * v
		}
		if !(math.Sqrt(ss) <= guards.GradNormLimit) { // catches NaN too
			return nil, "grad-norm"
		}
	}
	return reduced, ""
}

// RunGuarded executes a data-parallel run under silent-data-corruption
// injection with the configured detection guards. newModel must build
// the same initial model on every call and newOpt a stateless optimizer
// (only parameters are checkpointed); lossFn builds rank `rank`'s loss
// for global step `step` on a world of `world` ranks.
//
// Every window restores the newest restorable committed version from the
// tiered store (rank 0 reads, then broadcasts the flat parameters), runs
// its steps with guards between the allreduce and the optimizer update,
// and commits plus drains on success. A guard trip aborts the window
// before the optimizer applies the corrupt gradient; the next iteration
// restores and recomputes it clean. Storage injections damage committed
// versions, which surfaces as restores falling through to deeper tiers —
// or to an older version, redoing the lost window — on the next restore.
func RunGuarded(cfg GuardedConfig,
	newModel func() nn.Module,
	newOpt func() optim.Optimizer,
	lossFn func(rank, world, step int, m nn.Module) *autograd.Value) (*GuardedResult, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("ddl: guarded run needs at least one rank")
	}
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("ddl: guarded run needs at least one step")
	}
	if cfg.CheckpointEvery < 1 {
		return nil, fmt.Errorf("ddl: checkpoint cadence must be >= 1")
	}
	if len(cfg.Tiers) < 1 {
		return nil, fmt.Errorf("ddl: guarded run needs at least one checkpoint tier")
	}
	for _, inj := range cfg.Injections {
		if inj.Step < 0 || inj.Step >= cfg.Steps {
			return nil, fmt.Errorf("ddl: injection step %d outside run of %d steps", inj.Step, cfg.Steps)
		}
		if (inj.Kind == GradFlip || inj.Kind == WireFlip) && (inj.Rank < 0 || inj.Rank >= cfg.Ranks) {
			return nil, fmt.Errorf("ddl: injection rank %d outside world of %d", inj.Rank, cfg.Ranks)
		}
		if inj.Kind == TornDrain && len(cfg.Tiers) < 2 {
			return nil, fmt.Errorf("ddl: torn-drain injection needs a second tier")
		}
	}
	retain := cfg.Retain
	if retain <= 0 {
		retain = 4
	}
	maxRollbacks := cfg.MaxRollbacks
	if maxRollbacks <= 0 {
		maxRollbacks = 4 + 2*len(cfg.Injections)
	}

	store := checkpoint.NewMemStore(cfg.Tiers, retain)
	defer store.Close()

	// Version 1 is the initial state, drained everywhere so the deepest
	// tier always holds a restore point.
	nextVersion := 1
	if err := store.Save(newModel(), nextVersion); err != nil {
		return nil, err
	}
	if err := store.DrainAll(nextVersion); err != nil {
		return nil, err
	}
	stepOfVersion := map[int]int{1: 0}
	res := &GuardedResult{Checkpoints: 1}

	fired := make([]bool, len(cfg.Injections))
	rolledBack := false
	for {
		ref := newModel()
		info, err := store.Restore(ref)
		if err != nil {
			return nil, fmt.Errorf("ddl: guarded restore: %w", err)
		}
		done, ok := stepOfVersion[info.Version]
		if !ok {
			return nil, fmt.Errorf("ddl: restored unknown version %d", info.Version)
		}
		if rolledBack {
			res.RestoredFrom = append(res.RestoredFrom, info.TierName)
			cfg.Obs.Event("sdc", "ckpt", "restore",
				units.Seconds(res.StepsExecuted)*cfg.StepTime,
				obs.Num("version", float64(info.Version)), obs.Num("step", float64(done)),
				obs.Str("tier", info.TierName))
			cfg.Obs.Inc("ddl.sdc.restores")
			rolledBack = false
		}
		if done < res.StepsCommitted {
			// The newest commit was unrestorable on every tier: we fell
			// back to an older version and must redo its window.
			res.Rollbacks++
			res.LostSteps += res.StepsCommitted - done
			res.RestoredFrom = append(res.RestoredFrom, info.TierName)
			res.Losses = res.Losses[:done]
			cfg.Obs.Event("sdc", "ckpt", "version-fallback",
				units.Seconds(res.StepsExecuted)*cfg.StepTime,
				obs.Num("from_step", float64(res.StepsCommitted)), obs.Num("to_step", float64(done)),
				obs.Str("tier", info.TierName))
			cfg.Obs.Inc("ddl.sdc.restores")
			res.StepsCommitted = done
			if res.Rollbacks > maxRollbacks {
				return nil, fmt.Errorf("ddl: guarded run exceeded %d rollbacks without progress", maxRollbacks)
			}
		}
		if done >= cfg.Steps {
			res.StepsCommitted = done
			res.FinalParams = FlattenParams(ref.Params())
			res.FinalVersion = info.Version
			res.FinalTier = info.TierName
			return res, nil
		}

		windowEnd := done + cfg.CheckpointEvery
		if windowEnd > cfg.Steps {
			windowEnd = cfg.Steps
		}
		// This window's unfired injections, split by stage. Index pairs
		// travel along so firing can be recorded per injection after the
		// window resolves.
		type pendingInj struct {
			idx int
			inj SDCInjection
		}
		var gradPend []pendingInj
		var storePend []pendingInj
		for i, inj := range cfg.Injections {
			if fired[i] || inj.Step < done || inj.Step >= windowEnd {
				continue
			}
			if inj.Kind == GradFlip || inj.Kind == WireFlip {
				gradPend = append(gradPend, pendingInj{i, inj})
			} else {
				storePend = append(storePend, pendingInj{i, inj})
			}
		}
		gradInjs := make([]SDCInjection, len(gradPend))
		for i, p := range gradPend {
			gradInjs[i] = p.inj
		}
		storeInjs := make([]SDCInjection, len(storePend))
		for i, p := range storePend {
			storeInjs[i] = p.inj
		}

		restoredFlat := FlattenParams(ref.Params())
		world := cfg.Ranks
		losses := make([]float64, windowEnd-done)
		detStep, detBy := -1, ""
		var committedFlat []float64
		w := mp.NewWorld(world)
		w.Run(func(c *mp.Comm) {
			m := newModel()
			params := m.Params()
			var flat []float64
			if c.Rank() == 0 {
				flat = restoredFlat
			}
			flat = c.Bcast(0, flat)
			setFlatParams(params, flat)
			opt := newOpt()
			for s := done; s < windowEnd; s++ {
				for _, p := range params {
					p.Value.ZeroGrad()
				}
				loss := lossFn(c.Rank(), world, s, m)
				loss.Backward(nil)
				g := FlattenGrads(params)
				scale := 1 / float64(world)
				for i := range g {
					g[i] *= scale
				}
				// Compute-stage flips land before the guard is sealed.
				for _, inj := range gradInjs {
					if inj.Kind == GradFlip && inj.Step == s && inj.Rank == c.Rank() {
						w := inj.Word % len(g)
						g[w] = flipBit(g[w], inj.Bit)
					}
				}
				// Wire-stage flips land after it, via the tamper hook.
				var tamper mp.TamperFunc
				for _, inj := range gradInjs {
					if inj.Kind == WireFlip && inj.Step == s {
						inj := inj
						prev := tamper
						tamper = func(rank int, data []float64) {
							if prev != nil {
								prev(rank, data)
							}
							if rank == inj.Rank {
								w := inj.Word % len(data)
								data[w] = flipBit(data[w], inj.Bit)
							}
						}
					}
				}
				reduced, by := guardedReduce(c, g, cfg.Guards, tamper)
				if by != "" {
					// Every rank computes the same verdict from the same
					// reduced vector; all abort the window here, before
					// the optimizer touches the corrupt gradient.
					if c.Rank() == 0 {
						detStep, detBy = s, by
					}
					return
				}
				UnflattenGrads(params, reduced)
				opt.Step(params)
				if c.Rank() == 0 {
					losses[s-done] = loss.Data.At(0)
				}
			}
			if c.Rank() == 0 {
				committedFlat = FlattenParams(params)
			}
		})
		// Consume-once accounting: a gradient injection fired if its step
		// actually executed (everything up to and including the detection
		// step); storage injections fire only when the window commits.
		// Anything still pending re-fires during the recompute.
		for _, p := range gradPend {
			if detBy == "" || p.inj.Step <= detStep {
				fired[p.idx] = true
			}
		}
		if detBy == "" {
			for _, p := range storePend {
				fired[p.idx] = true
			}
		}

		if detBy != "" {
			executed := detStep - done + 1 // the aborted step ran its compute
			res.StepsExecuted += executed
			res.LostSteps += executed
			res.Detections++
			res.DetectedBy = append(res.DetectedBy, detBy)
			res.Rollbacks++
			rolledBack = true
			cfg.Obs.Event("sdc", "fault", "sdc-detected",
				units.Seconds(res.StepsExecuted)*cfg.StepTime,
				obs.Num("step", float64(detStep)), obs.Str("guard", detBy))
			cfg.Obs.Inc("ddl.sdc.detections")
			cfg.Obs.Inc("ddl.sdc.rollbacks")
			cfg.Obs.Add("ddl.sdc.lost_steps", int64(executed))
			if res.Rollbacks > maxRollbacks {
				return nil, fmt.Errorf("ddl: guarded run exceeded %d rollbacks without progress", maxRollbacks)
			}
			continue
		}

		res.StepsExecuted += windowEnd - done
		res.Losses = append(res.Losses, losses...)
		res.StepsCommitted = windowEnd
		nextVersion++
		commit := newModel()
		setFlatParams(commit.Params(), committedFlat)
		if err := store.Save(commit, nextVersion); err != nil {
			return nil, fmt.Errorf("ddl: guarded commit: %w", err)
		}
		stepOfVersion[nextVersion] = windowEnd
		res.Checkpoints++
		cfg.Obs.Event("sdc", "ckpt", "checkpoint-commit",
			units.Seconds(res.StepsExecuted)*cfg.StepTime,
			obs.Num("version", float64(nextVersion)), obs.Num("steps_committed", float64(windowEnd)))
		cfg.Obs.Inc("ddl.sdc.checkpoints")

		// Drain to the deeper tiers — unless a stale-replica injection
		// loses this version's drain entirely.
		stale := false
		for _, inj := range storeInjs {
			if inj.Kind == StaleDrain {
				stale = true
			}
		}
		if !stale {
			if err := store.DrainAll(nextVersion); err != nil {
				return nil, fmt.Errorf("ddl: guarded drain: %w", err)
			}
		}
		for _, inj := range storeInjs {
			switch inj.Kind {
			case CkptFlip:
				if err := store.CorruptVersion(0, nextVersion, byte(1<<uint(inj.Bit&7))); err != nil {
					return nil, fmt.Errorf("ddl: ckpt-flip injection: %w", err)
				}
				cfg.Obs.Inc("ddl.sdc.injected.ckpt_flips")
			case TornDrain:
				if err := store.TruncateVersion(1, nextVersion, 0.5); err != nil {
					return nil, fmt.Errorf("ddl: torn-drain injection: %w", err)
				}
				cfg.Obs.Inc("ddl.sdc.injected.torn_drains")
			case StaleDrain:
				cfg.Obs.Inc("ddl.sdc.injected.stale_replicas")
			}
		}
	}
}
