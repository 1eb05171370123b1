package main

import (
	"bufio"
	"strings"
	"testing"
)

func doc(benchmarks ...result) *document {
	return &document{Benchmarks: benchmarks}
}

func TestCompareWithinTolerance(t *testing.T) {
	old := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000, AllocsPerOp: 10})
	fresh := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1250, AllocsPerOp: 10})
	_, failed := compareDoc(old, fresh)
	if len(failed) != 0 {
		t.Fatalf("+25%% ns/op flagged as regression: %v", failed)
	}
}

func TestCompareNsRegression(t *testing.T) {
	old := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000})
	fresh := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1400})
	_, failed := compareDoc(old, fresh)
	if len(failed) != 1 {
		t.Fatalf("+40%% ns/op not flagged: %v", failed)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	old := doc(result{Name: "BenchmarkTrainStepAlloc", NsPerOp: 100, AllocsPerOp: 4})
	fresh := doc(result{Name: "BenchmarkTrainStepAlloc", NsPerOp: 100, AllocsPerOp: 9})
	_, failed := compareDoc(old, fresh)
	if len(failed) != 1 {
		t.Fatalf("alloc doubling not flagged: %v", failed)
	}
}

func TestCompareZeroAllocsStayZero(t *testing.T) {
	old := doc(result{Name: "BenchmarkMDForces", NsPerOp: 100, AllocsPerOp: 0})
	fresh := doc(result{Name: "BenchmarkMDForces", NsPerOp: 100, AllocsPerOp: 0})
	if _, failed := compareDoc(old, fresh); len(failed) != 0 {
		t.Fatalf("0 -> 0 allocs flagged: %v", failed)
	}
	// A formerly allocation-free loop that starts allocating regresses.
	fresh = doc(result{Name: "BenchmarkMDForces", NsPerOp: 100, AllocsPerOp: 2})
	if _, failed := compareDoc(old, fresh); len(failed) != 1 {
		t.Fatalf("0 -> 2 allocs not flagged: %v", failed)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000},
		result{Name: "BenchmarkGone", NsPerOp: 500})
	fresh := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000},
		result{Name: "BenchmarkNew", NsPerOp: 1})
	lines, failed := compareDoc(old, fresh)
	if len(failed) != 1 || failed[0] != "BenchmarkGone" {
		t.Fatalf("missing baseline benchmark not flagged: %v", failed)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "new benchmark") || !strings.Contains(joined, "MISSING") {
		t.Fatalf("report lines incomplete:\n%s", joined)
	}
}

// TestSpeedupRatio covers the two RunAll rules of the floor table. The
// -j rule (RunAllSequential/RunAllParallel >= 1.5x) is enforced only from
// kernelFloorMinProcs recorded cores; the memoization rule
// (RunAllParallel/DAGSchedule dag-warm >= 100x) binds at any core count.
func TestSpeedupRatio(t *testing.T) {
	const jRule, memoRule = "RunAllSequential/RunAllParallel", "RunAllParallel/DAGSchedule dag-warm"
	runAll := func(seq, par, warm float64, procs int) *document {
		d := doc(result{Name: "BenchmarkRunAllSequential", NsPerOp: seq},
			result{Name: "BenchmarkRunAllParallel", NsPerOp: par},
			result{Name: "BenchmarkDAGSchedule/dag-warm", NsPerOp: warm})
		d.Gomaxprocs = procs
		return d
	}
	// Pass: 2x across -j and 3,000x from memoization clear both floors.
	if lines, failed := checkKernelFloors(runAll(2000, 1000, 0.3, 4)); len(failed) != 0 {
		t.Fatalf("healthy RunAll pair failed: %v\n%s", failed, strings.Join(lines, "\n"))
	}
	// Breach: 1.2x across -j at 4 cores, and a warm engine only 10x
	// faster than a cold one (recomputing shared work), each fail alone.
	if _, failed := checkKernelFloors(runAll(1200, 1000, 0.3, 4)); len(failed) != 1 || failed[0] != jRule {
		t.Fatalf("1.2x -j speedup at 4 cores: failed %v, want [%s]", failed, jRule)
	}
	if _, failed := checkKernelFloors(runAll(2000, 1000, 100, 4)); len(failed) != 1 || failed[0] != memoRule {
		t.Fatalf("10x warm speedup: failed %v, want [%s]", failed, memoRule)
	}
	// Skip below minProcs: at 1 core a 0.87x -j ratio is reported, not
	// enforced, while the memoization rule still binds.
	lines, failed := checkKernelFloors(runAll(870, 1000, 0.3, 1))
	if len(failed) != 0 {
		t.Fatalf("-j floor enforced at 1 core: %v", failed)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, jRule+" floor 1.5x skipped (gomaxprocs 1 < 4)") ||
		!strings.Contains(joined, memoRule+" ratio") {
		t.Fatalf("1-core report lines wrong:\n%s", joined)
	}
	if _, failed := checkKernelFloors(runAll(870, 1000, 100, 1)); len(failed) != 1 || failed[0] != memoRule {
		t.Fatalf("memoization floor at 1 core: failed %v, want [%s]", failed, memoRule)
	}
	// A sweep without the RunAll benchmarks skips both rules silently.
	if lines, failed := checkKernelFloors(doc(result{Name: "BenchmarkOther", NsPerOp: 1})); len(lines) != 0 || len(failed) != 0 {
		t.Fatalf("absent RunAll benchmarks reported: %v %v", lines, failed)
	}
	// Half a pair cannot be evaluated: fail loudly.
	fresh := doc(result{Name: "BenchmarkRunAllParallel", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 2 {
		t.Fatalf("incomplete RunAll pairs: failed %v, want both rules", failed)
	}
}

func TestParseBenchStream(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: summitscale/internal/core
cpu: Test CPU
BenchmarkRunAll-8   	      10	 110000000 ns/op	  500000 B/op	    9000 allocs/op
PASS
ok  	summitscale/internal/core	2.0s
`
	d, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(d.Benchmarks))
	}
	r := d.Benchmarks[0]
	if r.Name != "BenchmarkRunAll" || r.NsPerOp != 110000000 || r.AllocsPerOp != 9000 {
		t.Fatalf("parsed %+v", r)
	}
	if d.Goos != "linux" || d.CPU != "Test CPU" {
		t.Fatalf("header lost: %+v", d)
	}
	if d.Gomaxprocs != 8 {
		t.Fatalf("GOMAXPROCS suffix not lifted into header: %+v", d)
	}
}

func TestParseGomaxprocsDefaultsToOne(t *testing.T) {
	in := "BenchmarkMDForces/serial   	 100	 4000000 ns/op\n"
	d, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Gomaxprocs != 1 {
		t.Fatalf("suffix-free run recorded gomaxprocs %d, want 1", d.Gomaxprocs)
	}
	if d.Benchmarks[0].Name != "BenchmarkMDForces/serial" {
		t.Fatalf("non-numeric name mangled: %q", d.Benchmarks[0].Name)
	}
}

func TestKernelFloorsGatedOnProcs(t *testing.T) {
	// At 1 recorded core the speedup floors are reported but not enforced.
	fresh := doc(result{Name: "BenchmarkCampaignHotPath/serial", NsPerOp: 1000},
		result{Name: "BenchmarkCampaignHotPath/parallel", NsPerOp: 950})
	fresh.Gomaxprocs = 1
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("speedup floor enforced at 1 core: %v", failed)
	}
	// At 8 cores a 1.05x campaign "speedup" is a failure against the 1.2x floor.
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 1 {
		t.Fatalf("below-floor campaign ratio not flagged at 8 cores: %v", failed)
	}
	// 1.5x clears it.
	fresh = doc(result{Name: "BenchmarkCampaignHotPath/serial", NsPerOp: 1500},
		result{Name: "BenchmarkCampaignHotPath/parallel", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("1.5x campaign ratio failed the 1.2x floor: %v", failed)
	}
}

func TestKernelFloorMDAndAllocs(t *testing.T) {
	fresh := doc(result{Name: "BenchmarkMDForces/serial", NsPerOp: 1000},
		result{Name: "BenchmarkMDForces/parallel", NsPerOp: 900},
		result{Name: "BenchmarkTrainStepAlloc/scratch", NsPerOp: 1, AllocsPerOp: 46})
	fresh.Gomaxprocs = 8
	_, failed := checkKernelFloors(fresh)
	// 1.11x misses the 1.2x MD floor AND 46 allocs breaches the 39 ceiling.
	if len(failed) != 2 {
		t.Fatalf("want MD-floor + alloc-ceiling failures, got %v", failed)
	}
	// The alloc ceiling applies even at 1 core.
	fresh.Gomaxprocs = 1
	if _, failed := checkKernelFloors(fresh); len(failed) != 1 {
		t.Fatalf("alloc ceiling not enforced at 1 core: %v", failed)
	}
}

func TestKernelFloorIncompletePairFails(t *testing.T) {
	fresh := doc(result{Name: "BenchmarkCheckpointDrain/async", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 1 {
		t.Fatalf("half a floor pair passed: %v", failed)
	}
}

func TestServeBatchingFloor(t *testing.T) {
	// 3x unbatched/batched clears the 2x serving floor.
	fresh := doc(result{Name: "BenchmarkServeHotPath/unbatched", NsPerOp: 3000},
		result{Name: "BenchmarkServeHotPath/batched", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("3x serve batching speedup failed the 2x floor: %v", failed)
	}
	// 1.5x misses it.
	fresh = doc(result{Name: "BenchmarkServeHotPath/unbatched", NsPerOp: 1500},
		result{Name: "BenchmarkServeHotPath/batched", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 1 || failed[0] != "ServeHotPath unbatched/batched" {
		t.Fatalf("below-floor serve ratio not flagged: %v", failed)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "ServeHotPath") {
		t.Fatalf("serve floor missing from report lines:\n%s", strings.Join(lines, "\n"))
	}
	// Like the kernel floors, it is reported but not enforced on 1 core.
	fresh.Gomaxprocs = 1
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("serve floor enforced at 1 core: %v", failed)
	}
}

// TestKernelFloorsReportAllViolations pins the gate's contract that every
// violated floor is listed before the nonzero exit — a run that breaches
// the campaign, MD, serve, and alloc rules at once must surface all four,
// not stop at the first.
func TestKernelFloorsReportAllViolations(t *testing.T) {
	fresh := doc(
		result{Name: "BenchmarkCampaignHotPath/serial", NsPerOp: 1000},
		result{Name: "BenchmarkCampaignHotPath/parallel", NsPerOp: 990},
		result{Name: "BenchmarkMDForces/serial", NsPerOp: 1000},
		result{Name: "BenchmarkMDForces/parallel", NsPerOp: 990},
		result{Name: "BenchmarkServeHotPath/unbatched", NsPerOp: 1000},
		result{Name: "BenchmarkServeHotPath/batched", NsPerOp: 990},
		result{Name: "BenchmarkTrainStepAlloc/scratch", NsPerOp: 1, AllocsPerOp: 99},
	)
	fresh.Gomaxprocs = 8
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 4 {
		t.Fatalf("want all 4 violations reported, got %d: %v", len(failed), failed)
	}
	joined := strings.Join(lines, "\n")
	for _, frag := range []string{"CampaignHotPath", "MDForces", "ServeHotPath", "TrainStepAlloc"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("violation report missing %s:\n%s", frag, joined)
		}
	}
	if got := strings.Count(joined, "REGRESSION"); got != 4 {
		t.Fatalf("want 4 REGRESSION markers, got %d:\n%s", got, joined)
	}
}

// TestGemmSIMDFloor: both sides of the SIMD floor run on one thread, so
// it binds at any recorded core count, the 1-core run included.
func TestGemmSIMDFloor(t *testing.T) {
	gemm := func(rowStream, simd float64) *document {
		d := doc(result{Name: "BenchmarkGemmRowStream256", NsPerOp: rowStream})
		if simd > 0 {
			d.Benchmarks = append(d.Benchmarks, result{Name: "BenchmarkGemmSIMD256", NsPerOp: simd})
		}
		return d
	}
	// 5x clears the 3x floor.
	fresh := gemm(5000, 1000)
	fresh.Gomaxprocs = 1
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("5x SIMD speedup failed the 3x floor: %v", failed)
	}
	// 2x breaches it, even on one core.
	fresh = gemm(2000, 1000)
	fresh.Gomaxprocs = 1
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 1 || failed[0] != "GemmRowStream256/GemmSIMD256" {
		t.Fatalf("below-floor SIMD ratio not flagged at 1 core: %v", failed)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "GemmSIMD256 ratio 2.00x (floor 3.0x)  [REGRESSION]") {
		t.Fatalf("SIMD breach not marked:\n%s", strings.Join(lines, "\n"))
	}
	// On a host without AVX2 the SIMD benchmark skips itself: the rule is
	// reported as skipped, not failed as an incomplete pair.
	fresh = gemm(1000, 0)
	fresh.Gomaxprocs = 2
	lines, failed = checkKernelFloors(fresh)
	if len(failed) != 0 {
		t.Fatalf("absent SIMD benchmark failed the gate: %v", failed)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "GemmSIMD256 floor 3.0x skipped") {
		t.Fatalf("absent SIMD benchmark not reported as skipped:\n%s", strings.Join(lines, "\n"))
	}
}

// TestGemm16Floor: both sides of the 16-wide tile's floor run the same
// products at the same width, so it binds at any recorded core count,
// and a host without AVX-512, whose benchmark skips tile16, skips it.
func TestGemm16Floor(t *testing.T) {
	gemm := func(tile8, tile16 float64) *document {
		d := doc(result{Name: "BenchmarkGemmTrainWide/tile8", NsPerOp: tile8})
		if tile16 > 0 {
			d.Benchmarks = append(d.Benchmarks, result{Name: "BenchmarkGemmTrainWide/tile16", NsPerOp: tile16})
		}
		return d
	}
	// 1.6x clears the floor at 1 and 2 cores.
	for _, procs := range []int{1, 2} {
		fresh := gemm(1600, 1000)
		fresh.Gomaxprocs = procs
		if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
			t.Fatalf("1.6x tile16 speedup failed the %.2fx floor at %d cores: %v", minGemm16Speedup, procs, failed)
		}
	}
	// Level tiles breach it, even on one core.
	fresh := gemm(1000, 1000)
	fresh.Gomaxprocs = 1
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 1 || failed[0] != "GemmTrainWide tile8/tile16" {
		t.Fatalf("level tiles not flagged at 1 core: %v", failed)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "GemmTrainWide tile8/tile16 ratio 1.00x") ||
		!strings.Contains(strings.Join(lines, "\n"), "[REGRESSION]") {
		t.Fatalf("tile16 breach not marked:\n%s", strings.Join(lines, "\n"))
	}
	// Without AVX-512 only tile8 runs: the rule is skipped, not failed.
	fresh = gemm(1000, 0)
	fresh.Gomaxprocs = 2
	lines, failed = checkKernelFloors(fresh)
	if len(failed) != 0 {
		t.Fatalf("absent tile16 benchmark failed the gate: %v", failed)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "GemmTrainWide tile8/tile16 floor") ||
		!strings.Contains(strings.Join(lines, "\n"), "skipped (BenchmarkGemmTrainWide/tile16 not run on this host)") {
		t.Fatalf("absent tile16 benchmark not reported as skipped:\n%s", strings.Join(lines, "\n"))
	}
}
