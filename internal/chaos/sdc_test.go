package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"summitscale/internal/ddl"
	"summitscale/internal/faults"
	"summitscale/internal/obs"
	"summitscale/internal/units"
)

func TestParseSDCDirective(t *testing.T) {
	sc, err := Parse(`
name sdc-demo
nodes 8
horizon 4h
sdc at 1h for 30m count 2 kind flip
sdc at 2h for 1h count 1 kind torn
sdc at 3h for 15m count 1 kind stale
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.SDCs) != 3 {
		t.Fatalf("parsed %d sdc bursts, want 3", len(sc.SDCs))
	}
	b := sc.SDCs[0]
	if b.At != units.Hour || b.For != 30*units.Minute || b.Count != 2 || b.Kind != "flip" {
		t.Fatalf("first burst %+v", b)
	}
	if sc.SDCs[1].Kind != "torn" || sc.SDCs[2].Kind != "stale" {
		t.Fatalf("kinds %q %q", sc.SDCs[1].Kind, sc.SDCs[2].Kind)
	}
}

func TestParseSDCRejectsBadBursts(t *testing.T) {
	for _, spec := range []string{
		"name x\nnodes 4\nhorizon 1h\nsdc at 30m for 10m count 0 kind flip",
		"name x\nnodes 4\nhorizon 1h\nsdc at 30m for 10m count 1 kind gamma-ray",
		"name x\nnodes 4\nhorizon 1h\nsdc at 59m for 10m count 1 kind flip",
		"name x\nnodes 4\nhorizon 1h\nsdc at 30m count 1 kind flip",
	} {
		if sc, err := Parse(spec); err == nil {
			if err := sc.Validate(); err == nil {
				t.Errorf("accepted %q", spec)
			}
		}
	}
}

func TestScaledSDCIntensifies(t *testing.T) {
	sc := MustParse("name x\nnodes 4\nhorizon 1h\nsdc at 10m for 10m count 3 kind flip")
	if got := sc.Scaled(2).SDCs[0].Count; got != 6 {
		t.Fatalf("scaled count %d, want 6", got)
	}
	if got := sc.Scaled(1.5).SDCs[0].Count; got != 5 {
		t.Fatalf("1.5x-scaled count %d, want ceil(4.5)=5", got)
	}
}

// TestSDCStormCompiles pins the builtin's compiled census: the bursts
// land inside their windows, flips carry word/bit coordinates, and the
// summary names every corruption class.
func TestSDCStormCompiles(t *testing.T) {
	sc, err := Builtin("sdc-storm")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sc.Compile(20220523)
	if err != nil {
		t.Fatal(err)
	}
	if n := sched.Trace.Count(faults.SilentCorruption); n != 5 {
		t.Fatalf("%d silent-corruption events, want 5", n)
	}
	if sched.Trace.Count(faults.TornWrite) != 1 || sched.Trace.Count(faults.StaleReplica) != 1 {
		t.Fatalf("torn/stale census wrong: %s", sched.Summary())
	}
	for _, e := range sched.Trace.Events {
		switch e.Kind {
		case faults.SilentCorruption:
			if e.Word < 0 || e.Bit < 0 || e.Bit >= 64 {
				t.Fatalf("flip event without coordinates: %+v", e)
			}
		case faults.TornWrite, faults.StaleReplica:
			if e.Word != 0 || e.Bit != 0 {
				t.Fatalf("storage event carries flip coordinates: %+v", e)
			}
		}
	}
	if !strings.Contains(sched.Summary(), "silent-corruption") {
		t.Fatalf("summary hides the corruption census: %s", sched.Summary())
	}
}

// TestSDCFreeSummaryUnchanged: scenarios without sdc directives must
// render the exact pre-SDC summary — no trailing zero-count segment.
func TestSDCFreeSummaryUnchanged(t *testing.T) {
	sc, err := Builtin("rack-cascade")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sc.Compile(20220523)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sched.Summary(), "silent-corruption") {
		t.Fatalf("sdc-free summary mentions corruption: %s", sched.Summary())
	}
}

func TestLowerSDCMapsKindsAndClampsSteps(t *testing.T) {
	sc, err := Builtin("sdc-storm")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sc.Compile(20220523)
	if err != nil {
		t.Fatal(err)
	}
	injs := LowerSDC(sched)
	if len(injs) != 7 {
		t.Fatalf("lowered %d injections, want 7", len(injs))
	}
	var flips int
	for _, inj := range injs {
		if inj.Step < 0 || inj.Step >= sdcProbeSteps {
			t.Fatalf("injection step %d outside probe", inj.Step)
		}
		switch inj.Kind {
		case ddl.GradFlip:
			flips++
			if inj.Bit != 62 {
				t.Fatalf("grad flip bit %d, want the always-escalating exponent bit 62", inj.Bit)
			}
		case ddl.WireFlip:
			flips++
			if inj.Bit != 51 {
				t.Fatalf("wire flip bit %d, want the abft-visible mantissa bit 51", inj.Bit)
			}
		}
		if inj.Kind == ddl.GradFlip || inj.Kind == ddl.WireFlip {
			if inj.Rank < 0 || inj.Rank >= sdcProbeRanks {
				t.Fatalf("flip rank %d outside probe world", inj.Rank)
			}
		}
	}
	if flips != 5 {
		t.Fatalf("%d flips lowered, want 5", flips)
	}
}

// TestRunSDCStormAblation is the scenario-level headline: on the shipped
// sdc-storm, armed guards detect the flips and recover bit-identically
// to the clean leg, while disarmed guards let the corruption through.
func TestRunSDCStormAblation(t *testing.T) {
	sc, err := Builtin("sdc-storm")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSDC(sc, 20220523, SDCConfig{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flips != 5 || rep.Torn != 1 || rep.Stale != 1 {
		t.Fatalf("census %d/%d/%d, want 5/1/1", rep.Flips, rep.Torn, rep.Stale)
	}
	if rep.On.Detections < 1 || !rep.OnMatchesClean {
		t.Fatalf("detection-on leg failed recovery: %d detections, match=%v",
			rep.On.Detections, rep.OnMatchesClean)
	}
	if rep.Off.Detections != 0 || !rep.OffCorrupted {
		t.Fatalf("detection-off leg: %d detections, corrupted=%v",
			rep.Off.Detections, rep.OffCorrupted)
	}
	out := rep.Render()
	for _, want := range []string{"sdc ablation sdc-storm", "bit-identical to clean: true",
		"corrupted: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	for _, banned := range []string{"NaN", "Inf"} {
		if strings.Contains(out, banned) {
			t.Fatalf("render leaks a raw %s:\n%s", banned, out)
		}
	}
}

// TestRunSDCObservesDetectionLeg: an observer sees the detection-on leg
// alone, on the scenario's clock: its counters match that leg's result,
// and every commit sits at its own instant.
func TestRunSDCObservesDetectionLeg(t *testing.T) {
	sc, err := Builtin("sdc-storm")
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	rep, err := RunSDC(sc, 20220523, SDCConfig{Jobs: 2, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"ddl.elastic.checkpoints":             rep.On.Checkpoints - 1, // the initial version is not a commit
		"ddl.elastic.detections":              rep.On.Detections,
		"ddl.elastic.rollbacks":               rep.On.Rollbacks,
		"ddl.elastic.lost_steps":              rep.On.LostSteps,
		"ddl.elastic.injected.torn_drains":    rep.Torn,
		"ddl.elastic.injected.stale_replicas": rep.Stale,
	} {
		if got := ob.Metrics.Counter(name); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(ob.Trace.ChromeTrace(), &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	commits := 0
	for _, e := range trace.TraceEvents {
		if e.Name != "checkpoint-commit" {
			continue
		}
		commits++
		if seen[e.Ts] {
			t.Errorf("two checkpoint commits at ts %v", e.Ts)
		}
		seen[e.Ts] = true
	}
	if commits != rep.On.Checkpoints-1 {
		t.Errorf("%d checkpoint-commit instants, want %d", commits, rep.On.Checkpoints-1)
	}
}

// TestRunSDCDeterministicAcrossJobs: the report is a pure function of
// (scenario, seed) — worker count must never leak into the rendering.
func TestRunSDCDeterministicAcrossJobs(t *testing.T) {
	sc, err := Builtin("sdc-storm")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunSDC(sc, 20220523, SDCConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSDC(sc, 20220523, SDCConfig{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != wide.Render() {
		t.Fatalf("jobs leaked into the report:\n-j1:\n%s\n-j4:\n%s", serial.Render(), wide.Render())
	}
}

// TestRunSDCWithoutBursts: an sdc-free scenario degenerates to three
// identical clean legs.
func TestRunSDCWithoutBursts(t *testing.T) {
	sc, err := Builtin("rack-cascade")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSDC(sc, 20220523, SDCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Injections) != 0 || rep.On.Detections != 0 || !rep.OnMatchesClean || rep.OffCorrupted {
		t.Fatalf("sdc-free ablation reported activity: %+v", rep)
	}
}
