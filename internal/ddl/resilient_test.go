package ddl

import (
	"math"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
)

// shardLoss shards the fixed 8-sample global batch evenly over the live
// world size, so the global objective is identical at any rank count that
// divides 8.
func shardLoss() func(rank, world, step int, m nn.Module) *autograd.Value {
	x, labels := globalBatch()
	return func(rank, world, step int, m nn.Module) *autograd.Value {
		per := 8 / world
		lo := rank * per
		out := m.(*nn.Sequential).Forward(autograd.Constant(x.Slice2DRows(lo, lo+per)))
		return autograd.SoftmaxCrossEntropy(out, labels[lo:lo+per])
	}
}

// runResilient runs cfg over the test model with plain SGD at rate lr.
func runResilient(t *testing.T, cfg ResilientConfig, lr float64) *ResilientResult {
	t.Helper()
	res, err := RunResilient(cfg, func() nn.Module { return buildModel() },
		func() optim.Optimizer { return optim.NewSGD(lr) }, shardLoss())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireNearSerial fails unless got is within 1e-9 of serial
// whole-batch training: the ring's reassociation is the only difference.
func requireNearSerial(t *testing.T, got []float64, steps int, lr float64) {
	t.Helper()
	want := trainSerial(steps, lr)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("param %d: resilient %v vs serial %v", i, got[i], want[i])
		}
	}
}

// oneTier is the single in-memory tier of the failure-only runs.
var oneTier = []string{"nvme"}

// TestElasticMatchesUninterrupted is the resilience headline: a run that
// loses two of four ranks mid-flight, restores from its last checkpoint,
// and continues on the shrunken world commits the same final parameters
// as serial whole-batch training — lost work is re-done, not skipped.
func TestElasticMatchesUninterrupted(t *testing.T) {
	const steps, lr = 6, 0.2
	res := runResilient(t, ResilientConfig{
		Ranks:           4,
		Steps:           steps,
		CheckpointEvery: 2,
		FailAtStep:      map[int]int{3: 2},
		Tiers:           oneTier,
	}, lr)
	if res.FinalRanks != 2 {
		t.Fatalf("final ranks %d, want 2", res.FinalRanks)
	}
	if res.Rollbacks != 1 || res.LostSteps != 1 {
		t.Fatalf("rollbacks %d lost %d, want 1 and 1 (failure one step past the step-2 commit)",
			res.Rollbacks, res.LostSteps)
	}
	if len(res.RestoredFrom) != 1 || res.RestoredFrom[0] != "nvme" || res.Detections != 0 {
		t.Fatalf("restored from %v with %d detections, want [nvme] and none", res.RestoredFrom, res.Detections)
	}
	if res.StepsCommitted != steps || len(res.Losses) != steps {
		t.Fatalf("committed %d steps with %d losses, want %d", res.StepsCommitted, len(res.Losses), steps)
	}
	if res.StepsExecuted != steps+res.LostSteps {
		t.Fatalf("executed %d, want committed+lost %d", res.StepsExecuted, steps+res.LostSteps)
	}
	requireNearSerial(t, res.FinalParams, steps, lr)
}

// TestElasticFailureFree: no failures degrades to plain checkpointed
// data-parallel training.
func TestElasticFailureFree(t *testing.T) {
	const steps, lr = 4, 0.2
	res := runResilient(t, ResilientConfig{
		Ranks:           2,
		Steps:           steps,
		CheckpointEvery: 3, // uneven final window
		Tiers:           oneTier,
	}, lr)
	if res.Rollbacks != 0 || res.LostSteps != 0 || res.FinalRanks != 2 {
		t.Fatalf("failure-free run reported faults: %+v", res)
	}
	// Initial commit + ceil(4/3) window commits.
	if res.Checkpoints != 3 {
		t.Fatalf("checkpoints %d, want 3", res.Checkpoints)
	}
	requireNearSerial(t, res.FinalParams, steps, lr)
}

// TestElasticRepeatedFailures survives a failure cascade down to a single
// rank and still reproduces serial training. A failure at its window's
// first step loses nothing.
func TestElasticRepeatedFailures(t *testing.T) {
	const steps, lr = 5, 0.1
	res := runResilient(t, ResilientConfig{
		Ranks:           4,
		Steps:           steps,
		CheckpointEvery: 1, // commit every step: failures lose no work
		FailAtStep:      map[int]int{1: 2, 3: 1},
		Tiers:           oneTier,
	}, lr)
	if res.FinalRanks != 1 {
		t.Fatalf("final ranks %d, want 1", res.FinalRanks)
	}
	if res.Rollbacks != 2 || res.LostSteps != 0 || res.StepsExecuted != steps {
		t.Fatalf("rollbacks %d lost %d executed %d, want 2, 0 and %d",
			res.Rollbacks, res.LostSteps, res.StepsExecuted, steps)
	}
	requireNearSerial(t, res.FinalParams, steps, lr)
}

// TestFailureAndDetectionShareOneLoop: a guard trip and a rank failure in
// one run recover the same way. The detection at step 1 loses steps 0–1;
// the failure at step 3 loses step 2 and shrinks the world, which leaves
// the failure pending while the detection aborts the window before its
// step. The recovered run commits exactly what the same failure without
// the flip commits.
func TestFailureAndDetectionShareOneLoop(t *testing.T) {
	const steps, lr = 6, 0.2
	cfg := ResilientConfig{
		Ranks:           4,
		Steps:           steps,
		CheckpointEvery: 4,
		FailAtStep:      map[int]int{3: 2},
		Tiers:           guardedTiers,
		Guards:          allGuards(),
	}
	clean := runResilient(t, cfg, lr)
	cfg.Injections = []SDCInjection{{Step: 1, Kind: WireFlip, Rank: 1, Word: 13, Bit: 51}}
	faulty := runResilient(t, cfg, lr)

	if clean.Rollbacks != 1 || clean.LostSteps != 3 || clean.Detections != 0 {
		t.Fatalf("clean: rollbacks %d lost %d detections %d, want 1, 3 and 0",
			clean.Rollbacks, clean.LostSteps, clean.Detections)
	}
	if faulty.Detections != 1 || faulty.DetectedBy[0] != "abft" || faulty.Rollbacks != 2 {
		t.Fatalf("faulty: detections %v rollbacks %d, want [abft] and 2", faulty.DetectedBy, faulty.Rollbacks)
	}
	// Lost: steps 0-1 to the detection, then steps 0-2 to the failure.
	if faulty.LostSteps != 2+3 || faulty.StepsExecuted != steps+faulty.LostSteps {
		t.Fatalf("faulty: lost %d executed %d, want 5 and %d", faulty.LostSteps, faulty.StepsExecuted, steps+5)
	}
	if faulty.FinalRanks != 2 || len(faulty.RestoredFrom) != 2 {
		t.Fatalf("faulty: final ranks %d restores %v, want 2 and two restores", faulty.FinalRanks, faulty.RestoredFrom)
	}
	for i := range clean.FinalParams {
		if faulty.FinalParams[i] != clean.FinalParams[i] {
			t.Fatalf("param %d: recovered %v != clean %v", i, faulty.FinalParams[i], clean.FinalParams[i])
		}
	}
	requireNearSerial(t, clean.FinalParams, steps, lr)
}

func TestElasticNoSurvivorsErrors(t *testing.T) {
	_, err := RunResilient(ResilientConfig{
		Ranks:           2,
		Steps:           3,
		CheckpointEvery: 1,
		FailAtStep:      map[int]int{1: 2},
		Tiers:           oneTier,
	}, func() nn.Module { return buildModel() },
		func() optim.Optimizer { return optim.NewSGD(0.1) },
		shardLoss())
	if err == nil {
		t.Fatal("total loss of ranks must error")
	}
}

func TestElasticValidatesConfig(t *testing.T) {
	mk := func() nn.Module { return buildModel() }
	op := func() optim.Optimizer { return optim.NewSGD(0.1) }
	for _, cfg := range []ResilientConfig{
		{Ranks: 0, Steps: 1, CheckpointEvery: 1, Tiers: oneTier},
		{Ranks: 1, Steps: 0, CheckpointEvery: 1, Tiers: oneTier},
		{Ranks: 1, Steps: 1, CheckpointEvery: 0, Tiers: oneTier},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, Tiers: oneTier, FailAtStep: map[int]int{5: 1}},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, Tiers: oneTier, FailAtStep: map[int]int{0: 0}},
	} {
		if _, err := RunResilient(cfg, mk, op, shardLoss()); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}
