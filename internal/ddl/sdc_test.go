package ddl

import (
	"math"
	"slices"
	"testing"

	"summitscale/internal/nn"
	"summitscale/internal/optim"
)

// guardedTiers is the three-tier layout of the guarded runs.
var guardedTiers = []string{"nvme", "replica", "gpfs"}

// allGuards arms every sentinel. The norm limit is far above any clean
// gradient of this model but far below what an exponent flip produces.
func allGuards() Guards {
	return Guards{NaN: true, GradNormLimit: 1.0, ABFT: true}
}

func runGuarded(t *testing.T, injections []SDCInjection, guards Guards) *ResilientResult {
	t.Helper()
	return runResilient(t, ResilientConfig{
		Ranks:           4,
		Steps:           6,
		CheckpointEvery: 2,
		Tiers:           guardedTiers,
		Injections:      injections,
		Guards:          guards,
	}, 0.2)
}

// TestGuardedCleanMatchesSerial: without injections, guarded training is
// ordinary checkpointed data parallelism. The ABFT guard slot shifts the
// ring's chunk boundaries, so the match with serial training is within
// reassociation tolerance, not bitwise.
func TestGuardedCleanMatchesSerial(t *testing.T) {
	res := runGuarded(t, nil, allGuards())
	if res.Detections != 0 || res.Rollbacks != 0 || res.LostSteps != 0 {
		t.Fatalf("clean run reported faults: %+v", res)
	}
	if res.StepsCommitted != 6 || len(res.Losses) != 6 {
		t.Fatalf("committed %d steps, %d losses, want 6", res.StepsCommitted, len(res.Losses))
	}
	// Initial version + 3 window commits.
	if res.Checkpoints != 4 {
		t.Fatalf("checkpoints %d, want 4", res.Checkpoints)
	}
	requireNearSerial(t, res.FinalParams, 6, 0.2)
}

// TestGuardedRecoveryBitIdentical is the subsystem's headline: a run hit
// by a wire flip (caught by the ABFT checksum) and a compute-stage
// exponent flip (caught by the NaN/norm sentinels) detects both, rolls
// back, recomputes, and finishes with final parameters EXACTLY equal to
// an undisturbed run's — corruption leaves no trace, not even a ULP.
func TestGuardedRecoveryBitIdentical(t *testing.T) {
	clean := runGuarded(t, nil, allGuards())
	faulty := runGuarded(t, []SDCInjection{
		{Step: 1, Kind: GradFlip, Rank: 2, Word: 7, Bit: 62},
		{Step: 4, Kind: WireFlip, Rank: 1, Word: 13, Bit: 51},
	}, allGuards())

	if faulty.Detections != 2 || faulty.Rollbacks != 2 {
		t.Fatalf("detections %d rollbacks %d, want 2 and 2 (%v)",
			faulty.Detections, faulty.Rollbacks, faulty.DetectedBy)
	}
	if !slices.Contains(faulty.DetectedBy, "abft") {
		t.Fatalf("wire flip not caught by the abft guard: %v", faulty.DetectedBy)
	}
	if len(faulty.RestoredFrom) != 2 {
		t.Fatalf("restores %v, want one per rollback", faulty.RestoredFrom)
	}
	if faulty.LostSteps == 0 || faulty.StepsExecuted <= clean.StepsExecuted {
		t.Fatalf("recovery cost no work: lost %d, executed %d vs clean %d",
			faulty.LostSteps, faulty.StepsExecuted, clean.StepsExecuted)
	}
	if len(faulty.FinalParams) != len(clean.FinalParams) {
		t.Fatal("parameter count mismatch")
	}
	for i := range clean.FinalParams {
		if faulty.FinalParams[i] != clean.FinalParams[i] {
			t.Fatalf("param %d: recovered %v != undisturbed %v (must be bit-identical)",
				i, faulty.FinalParams[i], clean.FinalParams[i])
		}
	}
	for i := range clean.Losses {
		if faulty.Losses[i] != clean.Losses[i] {
			t.Fatalf("loss %d: recovered %v != undisturbed %v", i, faulty.Losses[i], clean.Losses[i])
		}
	}
}

// TestGuardedDetectionOffCorrupts is the ablation's other arm: the same
// injections with every guard disarmed sail through and poison the final
// state. Detection-off runs use the same guard-slot arithmetic, so the
// divergence is the corruption, not reassociation.
func TestGuardedDetectionOffCorrupts(t *testing.T) {
	clean := runGuarded(t, nil, Guards{})
	faulty := runGuarded(t, []SDCInjection{
		{Step: 4, Kind: WireFlip, Rank: 1, Word: 13, Bit: 62},
	}, Guards{})
	if faulty.Detections != 0 || faulty.Rollbacks != 0 {
		t.Fatalf("disarmed guards detected something: %+v", faulty)
	}
	var maxDiff float64
	for i := range clean.FinalParams {
		d := math.Abs(faulty.FinalParams[i] - clean.FinalParams[i])
		if math.IsNaN(d) || d > maxDiff {
			maxDiff = d
			if math.IsNaN(d) {
				maxDiff = math.Inf(1)
				break
			}
		}
	}
	if !(maxDiff > 1e-6) {
		t.Fatalf("undetected flip left no corruption (max param diff %v)", maxDiff)
	}
}

// TestGuardedRestoreFallsThroughTiers: a checkpoint corrupted at rest on
// the NVMe tier forces the post-detection restore to fall through to the
// partner replica — and the run still ends bit-identical to clean.
func TestGuardedRestoreFallsThroughTiers(t *testing.T) {
	clean := runGuarded(t, nil, allGuards())
	faulty := runGuarded(t, []SDCInjection{
		{Step: 1, Kind: CkptFlip, Bit: 3},                    // corrupts the v2 commit (steps 0-1) on nvme
		{Step: 2, Kind: WireFlip, Rank: 0, Word: 3, Bit: 51}, // forces a restore of v2
	}, allGuards())
	if len(faulty.RestoredFrom) == 0 || faulty.RestoredFrom[0] != "replica" {
		t.Fatalf("restore tiers %v, want fall-through to replica first", faulty.RestoredFrom)
	}
	for i := range clean.FinalParams {
		if faulty.FinalParams[i] != clean.FinalParams[i] {
			t.Fatalf("param %d diverged after tier fall-through", i)
		}
	}
}

// TestGuardedVersionFallback: a commit whose drain is lost (stale
// replicas) AND whose tier-0 copy is flipped is unrestorable at any
// tier, so recovery falls back to the previous version and redoes the
// window — slower, never wrong.
func TestGuardedVersionFallback(t *testing.T) {
	clean := runGuarded(t, nil, allGuards())
	faulty := runGuarded(t, []SDCInjection{
		{Step: 0, Kind: StaleDrain},
		{Step: 1, Kind: CkptFlip, Bit: 1},
	}, allGuards())
	if faulty.Rollbacks == 0 || faulty.LostSteps < 2 {
		t.Fatalf("unrestorable commit cost nothing: %+v", faulty)
	}
	for i := range clean.FinalParams {
		if faulty.FinalParams[i] != clean.FinalParams[i] {
			t.Fatalf("param %d diverged after version fallback", i)
		}
	}
}

// TestGuardedTornDrainSurvives: a torn tier-1 drain alone is harmless
// while tier 0 is healthy, and the torn copy is refused as a restore
// source rather than trusted.
func TestGuardedTornDrainSurvives(t *testing.T) {
	clean := runGuarded(t, nil, allGuards())
	faulty := runGuarded(t, []SDCInjection{
		{Step: 1, Kind: TornDrain},
		{Step: 2, Kind: WireFlip, Rank: 3, Word: 0, Bit: 51},
	}, allGuards())
	if len(faulty.RestoredFrom) == 0 || faulty.RestoredFrom[0] != "nvme" {
		t.Fatalf("restore tiers %v, want healthy nvme first", faulty.RestoredFrom)
	}
	for i := range clean.FinalParams {
		if faulty.FinalParams[i] != clean.FinalParams[i] {
			t.Fatalf("param %d diverged after torn drain", i)
		}
	}
}

func TestGuardedValidatesConfig(t *testing.T) {
	mk := func() nn.Module { return buildModel() }
	op := func() optim.Optimizer { return optim.NewSGD(0.1) }
	tiers := guardedTiers
	one := tiers[:1]
	for _, cfg := range []ResilientConfig{
		{Ranks: 0, Steps: 1, CheckpointEvery: 1, Tiers: tiers},
		{Ranks: 1, Steps: 0, CheckpointEvery: 1, Tiers: tiers},
		{Ranks: 1, Steps: 1, CheckpointEvery: 0, Tiers: tiers},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, Tiers: tiers,
			Injections: []SDCInjection{{Step: 5, Kind: WireFlip}}},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, Tiers: tiers,
			Injections: []SDCInjection{{Step: 0, Kind: GradFlip, Rank: 9}}},
		{Ranks: 1, Steps: 1, CheckpointEvery: 1, Tiers: one,
			Injections: []SDCInjection{{Step: 0, Kind: TornDrain}}},
	} {
		if _, err := RunResilient(cfg, mk, op, shardLoss()); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}
