package ddl

import (
	"math"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
)

// elasticLoss shards the fixed 8-sample global batch evenly over the live
// world size, so the global objective is identical at any rank count that
// divides 8.
func elasticLoss() func(rank, world, step, micro int, m nn.Module) *autograd.Value {
	x, labels := globalBatch()
	return func(rank, world, step, micro int, m nn.Module) *autograd.Value {
		per := 8 / world
		lo := rank * per
		out := m.(*nn.Sequential).Forward(autograd.Constant(x.Slice2DRows(lo, lo+per)))
		return autograd.SoftmaxCrossEntropy(out, labels[lo:lo+per])
	}
}

// TestElasticMatchesUninterrupted is the resilience headline: a run that
// loses two of four ranks mid-flight, restores from its last checkpoint,
// and continues on the shrunken world commits the same final parameters
// as serial whole-batch training — lost work is re-done, not skipped.
func TestElasticMatchesUninterrupted(t *testing.T) {
	const steps, lr = 6, 0.2
	want := trainSerial(steps, lr)
	res, err := RunElastic(ElasticConfig{
		Ranks:           4,
		Steps:           steps,
		CheckpointEvery: 2,
		FailAtStep:      map[int]int{3: 2},
	}, func() nn.Module { return buildModel() },
		func() optim.Optimizer { return optim.NewSGD(lr) },
		elasticLoss())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRanks != 2 {
		t.Fatalf("final ranks %d, want 2", res.FinalRanks)
	}
	if res.Restores != 1 || res.LostSteps != 1 {
		t.Fatalf("restores %d lost %d, want 1 and 1 (failure one step past the step-2 commit)",
			res.Restores, res.LostSteps)
	}
	if res.StepsCommitted != steps || len(res.Losses) != steps {
		t.Fatalf("committed %d steps with %d losses, want %d", res.StepsCommitted, len(res.Losses), steps)
	}
	if res.StepsExecuted != steps+res.LostSteps {
		t.Fatalf("executed %d, want committed+lost %d", res.StepsExecuted, steps+res.LostSteps)
	}
	for i := range want {
		if math.Abs(res.FinalParams[i]-want[i]) > 1e-9 {
			t.Fatalf("param %d: elastic %v vs serial %v", i, res.FinalParams[i], want[i])
		}
	}
}

// TestElasticGrowBackMatchesSerial: shrink then grow back. A failure drops
// the world from 4 to 2; the repaired ranks rejoin at the next checkpoint
// boundary, and the finished run — having trained at 4, then 2, then 4
// ranks — still commits the serial reference parameters, because growth
// only ever happens from a committed state.
func TestElasticGrowBackMatchesSerial(t *testing.T) {
	const steps, lr = 6, 0.2
	want := trainSerial(steps, lr)
	res, err := RunElastic(ElasticConfig{
		Ranks:           4,
		Steps:           steps,
		CheckpointEvery: 2,
		FailAtStep:      map[int]int{3: 2},
		RepairAtStep:    map[int]int{3: 2},
	}, func() nn.Module { return buildModel() },
		func() optim.Optimizer { return optim.NewSGD(lr) },
		elasticLoss())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRanks != 4 || res.Regrows != 1 {
		t.Fatalf("final ranks %d with %d regrows, want 4 and 1", res.FinalRanks, res.Regrows)
	}
	// Steps 0-2 run at world 4 (step 2 discarded), the re-run window 2-3 at
	// the shrunken world 2, and the post-repair window 4-5 at 4 again.
	wantWorlds := []int{4, 4, 4, 2, 2, 4, 4}
	if len(res.WorldSizes) != len(wantWorlds) {
		t.Fatalf("executed worlds %v, want %v", res.WorldSizes, wantWorlds)
	}
	for i, w := range wantWorlds {
		if res.WorldSizes[i] != w {
			t.Fatalf("executed worlds %v, want %v", res.WorldSizes, wantWorlds)
		}
	}
	for i := range want {
		if math.Abs(res.FinalParams[i]-want[i]) > 1e-9 {
			t.Fatalf("param %d: grow-back run %v vs serial %v",
				i, res.FinalParams[i], want[i])
		}
	}
}

// TestGrowBackBeatsShrinkOnly: the policy is load-bearing — on the same
// failure, the run that regains its repaired ranks finishes the remaining
// steps faster than the one that limps on at half width.
func TestGrowBackBeatsShrinkOnly(t *testing.T) {
	run := func(repair map[int]int) *ElasticResult {
		res, err := RunElastic(ElasticConfig{
			Ranks:           4,
			Steps:           6,
			CheckpointEvery: 2,
			FailAtStep:      map[int]int{3: 2},
			RepairAtStep:    repair,
		}, func() nn.Module { return buildModel() },
			func() optim.Optimizer { return optim.NewSGD(0.2) },
			elasticLoss())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	growBack := run(map[int]int{3: 2})
	shrinkOnly := run(nil)
	gw := growBack.SimulatedWall(8, 1)
	sw := shrinkOnly.SimulatedWall(8, 1)
	if gw >= sw {
		t.Fatalf("grow-back wall %v not below shrink-only %v", gw, sw)
	}
	for i := range growBack.FinalParams {
		if math.Abs(growBack.FinalParams[i]-shrinkOnly.FinalParams[i]) > 1e-9 {
			t.Fatalf("param %d: grow-back %v differs from shrink-only %v — policies must only change speed",
				i, growBack.FinalParams[i], shrinkOnly.FinalParams[i])
		}
	}
}

// TestElasticFailureFree: no failures degrades to plain checkpointed
// data-parallel training.
func TestElasticFailureFree(t *testing.T) {
	const steps, lr = 4, 0.2
	want := trainSerial(steps, lr)
	res, err := RunElastic(ElasticConfig{
		Ranks:           2,
		Steps:           steps,
		CheckpointEvery: 3, // uneven final window
	}, func() nn.Module { return buildModel() },
		func() optim.Optimizer { return optim.NewSGD(lr) },
		elasticLoss())
	if err != nil {
		t.Fatal(err)
	}
	if res.Restores != 0 || res.LostSteps != 0 || res.FinalRanks != 2 {
		t.Fatalf("failure-free run reported faults: %+v", res)
	}
	// Initial commit + ceil(4/3) window commits.
	if res.Checkpoints != 3 {
		t.Fatalf("checkpoints %d, want 3", res.Checkpoints)
	}
	for i := range want {
		if math.Abs(res.FinalParams[i]-want[i]) > 1e-9 {
			t.Fatalf("param %d: %v vs serial %v", i, res.FinalParams[i], want[i])
		}
	}
}

// TestElasticRepeatedFailures survives a failure cascade down to a single
// rank and still reproduces serial training.
func TestElasticRepeatedFailures(t *testing.T) {
	const steps, lr = 5, 0.1
	want := trainSerial(steps, lr)
	res, err := RunElastic(ElasticConfig{
		Ranks:           4,
		Steps:           steps,
		CheckpointEvery: 1, // commit every step: failures lose no work
		FailAtStep:      map[int]int{1: 2, 3: 1},
	}, func() nn.Module { return buildModel() },
		func() optim.Optimizer { return optim.NewSGD(lr) },
		elasticLoss())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRanks != 1 {
		t.Fatalf("final ranks %d, want 1", res.FinalRanks)
	}
	if res.Restores != 2 || res.LostSteps != 0 {
		t.Fatalf("restores %d lost %d, want 2 and 0", res.Restores, res.LostSteps)
	}
	for i := range want {
		if math.Abs(res.FinalParams[i]-want[i]) > 1e-9 {
			t.Fatalf("param %d: %v vs serial %v", i, res.FinalParams[i], want[i])
		}
	}
}

func TestElasticNoSurvivorsErrors(t *testing.T) {
	_, err := RunElastic(ElasticConfig{
		Ranks:           2,
		Steps:           3,
		CheckpointEvery: 1,
		FailAtStep:      map[int]int{1: 2},
	}, func() nn.Module { return buildModel() },
		func() optim.Optimizer { return optim.NewSGD(0.1) },
		elasticLoss())
	if err == nil {
		t.Fatal("total loss of ranks must error")
	}
}

func TestElasticValidatesConfig(t *testing.T) {
	mk := func() nn.Module { return buildModel() }
	op := func() optim.Optimizer { return optim.NewSGD(0.1) }
	for _, cfg := range []ElasticConfig{
		{Ranks: 0, Steps: 1, CheckpointEvery: 1},
		{Ranks: 1, Steps: 0, CheckpointEvery: 1},
		{Ranks: 1, Steps: 1, CheckpointEvery: 0},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, FailAtStep: map[int]int{5: 1}},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, RepairAtStep: map[int]int{5: 1}},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, RepairAtStep: map[int]int{0: 0}},
	} {
		if _, err := RunElastic(cfg, mk, op, elasticLoss()); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}
