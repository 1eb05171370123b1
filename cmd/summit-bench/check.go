package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Regression gate: `summit-bench -check old.json` parses a fresh
// benchmark stream from stdin and compares it against a committed
// baseline document, failing when a hot path slows down or allocates
// beyond tolerance. Benchmark timings on shared CI runners are noisy, so
// the threshold is deliberately wide (±30%); allocs/op is deterministic
// and uses the same bound only to tolerate size-class changes.

// checkTolerance is the fractional regression allowed before failing.
const checkTolerance = 0.30

// Floor rules. Unlike the pairwise tolerances these are ratios within ONE
// fresh run, so runner speed cancels out and they can gate strictly. A parallel speedup only means
// something when there are cores to fan out over, so those floors are
// skipped below kernelFloorMinProcs; a floor whose two sides both run on
// one thread, and the deterministic allocation floor, apply at any core
// count.
const (
	// minGemmSIMDSpeedup floors GemmRowStream256 / GemmSIMD256: the AVX2
	// micro-kernel must beat the row-stream kernel 3x on one thread.
	minGemmSIMDSpeedup = 3.0
	// minMDSpeedup floors MDForces/serial / MDForces/parallel: the
	// persistent-pool force kernel must actually beat serial.
	minMDSpeedup = 1.2
	// minServeBatchSpeedup floors ServeHotPath unbatched/batched: the
	// serving layer's micro-batched inference must process the same rows
	// at least 2x faster than single-row dispatch — it amortizes per-call
	// overhead and fans rows out over the pool.
	minServeBatchSpeedup = 2.0
	// minCampaignSpeedup floors CampaignHotPath serial/parallel: the
	// benchmark-campaign harness must evaluate instances (TTT pricing +
	// proxy training) concurrently, not in a serial loop. Each proxy run
	// already holds a small rank-world of goroutines, so the fan-out
	// margin is thinner than a pure kernel's.
	minCampaignSpeedup = 1.2
	// minCheckpointDrainSpeedup floors CheckpointDrain sync/async: the
	// asynchronous tier drain must overlap its deep-tier copies with the
	// training steps a synchronous drain would stall, so the async path
	// finishes the same step+commit+drain workload at least 1.5x faster.
	minCheckpointDrainSpeedup = 1.5
	// minParallelSpeedup floors RunAllSequential / RunAllParallel: the
	// cold DAG engine at -j 4 must beat itself at -j 1 by this factor.
	// Measured 1.3–1.7x on a 2-vCPU host, so the floor is enforced only
	// from kernelFloorMinProcs cores.
	minParallelSpeedup = 1.5
	// minMemoSpeedup floors RunAllParallel / DAGSchedule/dag-warm: a warm
	// engine re-renders memoized results, so it must beat a cold run by
	// this factor at any core count, or the engine has regressed to
	// recomputing shared work. The committed 1-core baseline reads about
	// 800x (a cold run of 314 ms against 0.39 ms warm).
	minMemoSpeedup = 100.0
	// kernelFloorMinProcs is the recorded GOMAXPROCS below which the
	// parallel speedup floors are skipped (reported, not enforced).
	kernelFloorMinProcs = 4
	// maxTrainStepAllocs caps TrainStepAlloc/scratch allocs/op: the
	// arena + persistent-pool training step must stay allocation-flat.
	// The count is exact, so the ceiling sits at it with no headroom.
	maxTrainStepAllocs = 39
)

// ratioRule is one within-run speedup floor: numerator ns/op over
// denominator ns/op must reach floor. Rules live in a table so every rule
// is evaluated — and every violation reported — before the gate exits
// nonzero; adding a floor is one line here plus a constant above.
type ratioRule struct {
	label    string
	num, den string // benchmark names as recorded in the document
	floor    float64
	// minProcs is the recorded GOMAXPROCS below which the floor is
	// reported, not enforced.
	minProcs int
	// denOptional marks a denominator that skips itself on hosts without
	// the hardware it measures; its absence skips the rule instead of
	// failing it as an incomplete pair.
	denOptional bool
}

// ratioRules is the floor table -check and -floors enforce.
var ratioRules = []ratioRule{
	{label: "GemmRowStream256/GemmSIMD256",
		num: "BenchmarkGemmRowStream256", den: "BenchmarkGemmSIMD256",
		floor: minGemmSIMDSpeedup, minProcs: 1, denOptional: true},
	{label: "MDForces serial/parallel",
		num: "BenchmarkMDForces/serial", den: "BenchmarkMDForces/parallel",
		floor: minMDSpeedup, minProcs: kernelFloorMinProcs},
	{label: "ServeHotPath unbatched/batched",
		num: "BenchmarkServeHotPath/unbatched", den: "BenchmarkServeHotPath/batched",
		floor: minServeBatchSpeedup, minProcs: kernelFloorMinProcs},
	{label: "CampaignHotPath serial/parallel",
		num: "BenchmarkCampaignHotPath/serial", den: "BenchmarkCampaignHotPath/parallel",
		floor: minCampaignSpeedup, minProcs: kernelFloorMinProcs},
	{label: "CheckpointDrain sync/async",
		num: "BenchmarkCheckpointDrain/sync", den: "BenchmarkCheckpointDrain/async",
		floor: minCheckpointDrainSpeedup, minProcs: kernelFloorMinProcs},
	{label: "RunAllSequential/RunAllParallel",
		num: "BenchmarkRunAllSequential", den: "BenchmarkRunAllParallel",
		floor: minParallelSpeedup, minProcs: kernelFloorMinProcs},
	{label: "RunAllParallel/DAGSchedule dag-warm",
		num: "BenchmarkRunAllParallel", den: "BenchmarkDAGSchedule/dag-warm",
		floor: minMemoSpeedup, minProcs: 1},
}

// checkKernelFloors enforces the alloc ceiling and every table rule on a
// fresh document. Absent benchmarks are fine (a partial sweep skips their
// rules); a present pair is enforced, and all violations are collected
// rather than stopping at the first.
func checkKernelFloors(fresh *document) (lines []string, failed []string) {
	find := func(name string) *result {
		for i := range fresh.Benchmarks {
			if fresh.Benchmarks[i].Name == name {
				return &fresh.Benchmarks[i]
			}
		}
		return nil
	}
	if r := find("BenchmarkTrainStepAlloc/scratch"); r != nil {
		status := "ok"
		if r.AllocsPerOp > maxTrainStepAllocs {
			status = "REGRESSION"
			failed = append(failed, "TrainStepAlloc/scratch allocs")
		}
		lines = append(lines, fmt.Sprintf("  TrainStepAlloc/scratch allocs/op %30.0f (ceiling %d)  [%s]",
			r.AllocsPerOp, maxTrainStepAllocs, status))
	}
	for _, rule := range ratioRules {
		nr, dr := find(rule.num), find(rule.den)
		if nr == nil && dr == nil {
			continue
		}
		if dr == nil && rule.denOptional {
			lines = append(lines, fmt.Sprintf("  %s floor %.1fx skipped (%s not run on this host)",
				rule.label, rule.floor, rule.den))
			continue
		}
		if nr == nil || dr == nil || dr.NsPerOp == 0 {
			lines = append(lines, fmt.Sprintf("  %s: pair incomplete", rule.label))
			failed = append(failed, rule.label)
			continue
		}
		if fresh.Gomaxprocs < rule.minProcs {
			lines = append(lines, fmt.Sprintf("  %s floor %.1fx skipped (gomaxprocs %d < %d)",
				rule.label, rule.floor, fresh.Gomaxprocs, rule.minProcs))
			continue
		}
		got := nr.NsPerOp / dr.NsPerOp
		status := "ok"
		if got < rule.floor {
			status = "REGRESSION"
			failed = append(failed, rule.label)
		}
		lines = append(lines, fmt.Sprintf("  %s ratio %.2fx (floor %.1fx)  [%s]", rule.label, got, rule.floor, status))
	}
	return lines, failed
}

// runFloors evaluates only the within-run kernel floor rules — no
// baseline document needed, so it works on any runner regardless of
// what core count the committed baseline was measured at (`make
// bench-floors`, the CI perf-smoke job).
func runFloors(fresh *document, stdout, stderr io.Writer) int {
	lines, failed := checkKernelFloors(fresh)
	fmt.Fprintf(stdout, "kernel floor check (gomaxprocs %d):\n", fresh.Gomaxprocs)
	if len(lines) == 0 {
		fmt.Fprintln(stderr, "summit-bench: no kernel-floor benchmarks in stream (need Gemm*, MDForces, ServeHotPath, CampaignHotPath, CheckpointDrain, TrainStepAlloc)")
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "summit-bench: %d kernel floor(s) breached: %v\n", len(failed), failed)
		return 1
	}
	fmt.Fprintln(stdout, "summit-bench: kernel floors hold")
	return 0
}

// compareDoc diffs fresh against old benchmark-by-benchmark and returns
// human-readable report lines plus the names of failing benchmarks.
func compareDoc(old, fresh *document) (lines []string, failed []string) {
	baseline := make(map[string]result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		baseline[r.Name] = r
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		seen[r.Name] = true
		b, ok := baseline[r.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("  %-52s new benchmark (no baseline)", r.Name))
			continue
		}
		fail := false
		nsDelta := relDelta(b.NsPerOp, r.NsPerOp)
		if nsDelta > checkTolerance {
			fail = true
		}
		allocDelta := relDelta(b.AllocsPerOp, r.AllocsPerOp)
		if allocDelta > checkTolerance && r.AllocsPerOp-b.AllocsPerOp > 0.5 {
			fail = true
		}
		status := "ok"
		if fail {
			status = "REGRESSION"
			failed = append(failed, r.Name)
		}
		lines = append(lines, fmt.Sprintf("  %-52s ns/op %12.0f -> %12.0f (%+6.1f%%)  allocs/op %6.0f -> %6.0f  [%s]",
			r.Name, b.NsPerOp, r.NsPerOp, 100*nsDelta, b.AllocsPerOp, r.AllocsPerOp, status))
	}
	var missing []string
	for name := range baseline {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		lines = append(lines, fmt.Sprintf("  %-52s MISSING from fresh run", name))
		failed = append(failed, name)
	}
	return lines, failed
}

// relDelta is (fresh-old)/old; an old value of zero only regresses when
// fresh is nonzero.
func relDelta(old, fresh float64) float64 {
	if old == 0 {
		if fresh == 0 {
			return 0
		}
		return 1 // appeared from nothing: treat as a full regression
	}
	return (fresh - old) / old
}

// runCheck loads the baseline, prints the comparison of doc against it
// and returns 1 on regression.
func runCheck(baselinePath string, fresh *document, stdout, stderr io.Writer) int {
	b, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "summit-bench:", err)
		return 1
	}
	var old document
	if err := json.Unmarshal(b, &old); err != nil {
		fmt.Fprintf(stderr, "summit-bench: parsing %s: %v\n", baselinePath, err)
		return 1
	}
	oldProcs := old.Gomaxprocs
	if oldProcs == 0 {
		oldProcs = 1 // documents predating the field were 1-core runs
	}
	if oldProcs != fresh.Gomaxprocs {
		fmt.Fprintf(stderr,
			"summit-bench: refusing to compare: baseline %s was measured at gomaxprocs=%d, this run at %d — parallel-kernel timings from different core counts are not comparable; regenerate the baseline on a matching machine\n",
			baselinePath, oldProcs, fresh.Gomaxprocs)
		return 1
	}
	lines, failed := compareDoc(&old, fresh)
	if kl, kf := checkKernelFloors(fresh); len(kl) > 0 {
		lines = append(lines, kl...)
		failed = append(failed, kf...)
	}
	fmt.Fprintf(stdout, "benchmark check vs %s (tolerance +-%.0f%%):\n", baselinePath, 100*checkTolerance)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "summit-bench: %d benchmark(s) regressed beyond %.0f%%: %v\n",
			len(failed), 100*checkTolerance, failed)
		return 1
	}
	fmt.Fprintln(stdout, "summit-bench: no regressions")
	return 0
}
