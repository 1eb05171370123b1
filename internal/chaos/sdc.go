package chaos

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"summitscale/internal/autograd"
	"summitscale/internal/ddl"
	"summitscale/internal/faults"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// The SDC ablation probe: a fixed small training run every scenario's
// corruption events are lowered onto, so ablations stay comparable and
// fast. The run is long enough for several checkpoint windows and small
// enough that three legs finish in well under a second.
const (
	sdcProbeSteps  = 24
	sdcProbeRanks  = 4
	sdcProbeCkEach = 4
)

// SDCConfig shapes an SDC ablation run.
type SDCConfig struct {
	// Jobs bounds how many legs run concurrently (<= 1 means serial).
	// The report is a pure function of (scenario, seed) at any value.
	Jobs int
	// Obs, if non-nil, receives the per-leg ddl.elastic.* counters and events.
	Obs *obs.Observer
}

// SDCReport is the detection-on vs detection-off ablation of one
// scenario's silent-corruption events, plus the clean reference leg.
type SDCReport struct {
	Scenario string
	Seed     uint64
	Steps    int
	Ranks    int

	// The injection census lowered from the compiled trace.
	Flips, Torn, Stale int
	Injections         []ddl.SDCInjection

	Clean *ddl.ResilientResult // guards armed, no injections
	On    *ddl.ResilientResult // guards armed, injections live
	Off   *ddl.ResilientResult // guards disarmed, injections live

	// OnMatchesClean: the detection-on leg's final parameters are
	// bit-identical to the clean leg's — recovery left no trace.
	OnMatchesClean bool
	// OffMaxDiff is the detection-off leg's worst parameter divergence
	// from clean (+Inf when the state went non-finite); OffCorrupted is
	// the ablation verdict.
	OffMaxDiff   float64
	OffCorrupted bool
}

// sdcGuards arms every sentinel for the probe model: clean gradient
// norms sit far below 1, while the storm's exponent-region flips land
// many orders of magnitude above 100 (or overflow to non-finite).
func sdcGuards() ddl.Guards {
	return ddl.Guards{NaN: true, GradNormLimit: 100, ABFT: true}
}

// sdcProbeModel builds the deterministic probe MLP.
func sdcProbeModel() nn.Module {
	return nn.NewMLP(stats.NewRNG(42), []int{4, 8, 3}, autograd.Tanh)
}

// sdcProbeLoss shards a fixed 8-sample batch across the probe world.
func sdcProbeLoss() func(rank, world, step int, m nn.Module) *autograd.Value {
	rng := stats.NewRNG(7)
	x := tensor.Randn(rng, 1, 8, 4)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	return func(rank, world, step int, m nn.Module) *autograd.Value {
		per := 8 / world
		lo := rank * per
		out := m.(*nn.Sequential).Forward(autograd.Constant(x.Slice2DRows(lo, lo+per)))
		return autograd.SoftmaxCrossEntropy(out, labels[lo:lo+per])
	}
}

// LowerSDC maps the compiled trace's corruption events onto the probe
// run's steps. Flip events alternate between wire-stage and compute-
// stage flips by word parity. The flipped bit is chosen for the stage,
// not taken from the event: compute-stage flips hit exponent bit 62 —
// clear in every |v| < 2, so the XOR always escalates the value to a
// catastrophic magnitude the norm/NaN sentinels must catch (a random
// high exponent bit is often already set, and clearing it collapses the
// value into an undetectable-by-design perturbation) — and wire-stage
// flips hit mantissa bit 51, a ~50% relative change squarely visible to
// the ABFT checksum. Sub-tolerance flips are the ddl unit tests'
// concern, not the storm's. Torn writes and stale replicas lower to
// their storage injections against whatever commit covers their step.
func LowerSDC(sched *Schedule) []ddl.SDCInjection {
	var out []ddl.SDCInjection
	horizon := sched.Scenario.Horizon
	for _, e := range sched.Trace.Events {
		step := int(float64(e.Time) / float64(horizon) * sdcProbeSteps)
		if step >= sdcProbeSteps {
			step = sdcProbeSteps - 1
		}
		switch e.Kind {
		case faults.SilentCorruption:
			kind, bit := ddl.WireFlip, 51
			if e.Word%2 == 1 {
				kind, bit = ddl.GradFlip, 62
			}
			out = append(out, ddl.SDCInjection{
				Step: step, Kind: kind, Rank: e.Node % sdcProbeRanks,
				Word: e.Word, Bit: bit,
			})
		case faults.TornWrite:
			out = append(out, ddl.SDCInjection{Step: step, Kind: ddl.TornDrain})
		case faults.StaleReplica:
			out = append(out, ddl.SDCInjection{Step: step, Kind: ddl.StaleDrain})
		}
	}
	return out
}

// RunSDC compiles the scenario and runs the three-leg ablation: clean
// (guards armed, nothing injected), detection-on (guards armed,
// injections live), detection-off (guards disarmed, same injections).
// All three legs share the guard-slot allreduce arithmetic, so any
// divergence between legs is corruption or recovery, never reassociation.
// The report is deterministic for a (scenario, seed) pair at any Jobs.
func RunSDC(sc *Scenario, seed uint64, cfg SDCConfig) (*SDCReport, error) {
	sched, err := sc.Compile(seed)
	if err != nil {
		return nil, err
	}
	injections := LowerSDC(sched)
	rep := &SDCReport{
		Scenario:   sc.Name,
		Seed:       seed,
		Steps:      sdcProbeSteps,
		Ranks:      sdcProbeRanks,
		Injections: injections,
	}
	for _, inj := range injections {
		switch inj.Kind {
		case ddl.GradFlip, ddl.WireFlip:
			rep.Flips++
		case ddl.TornDrain:
			rep.Torn++
		case ddl.StaleDrain:
			rep.Stale++
		}
	}

	legs := []struct {
		name   string
		guards ddl.Guards
		inj    []ddl.SDCInjection
		out    **ddl.ResilientResult
	}{
		{"clean", sdcGuards(), nil, &rep.Clean},
		{"detect-on", sdcGuards(), injections, &rep.On},
		{"detect-off", ddl.Guards{}, injections, &rep.Off},
	}
	jobs := cfg.Jobs
	if jobs < 1 {
		jobs = 1
	}
	sem := make(chan struct{}, jobs)
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i, leg := range legs {
		wg.Add(1)
		go func(i int, name string, guards ddl.Guards, inj []ddl.SDCInjection, out **ddl.ResilientResult) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := ddl.RunResilient(ddl.ResilientConfig{
				Ranks:           sdcProbeRanks,
				Steps:           sdcProbeSteps,
				CheckpointEvery: sdcProbeCkEach,
				Tiers:           []string{"nvme", "replica", "gpfs"},
				Injections:      inj,
				Guards:          guards,
				Obs:             cfg.Obs,
			}, sdcProbeModel,
				func() optim.Optimizer { return optim.NewSGD(0.2) },
				sdcProbeLoss())
			if err != nil {
				errs[i] = fmt.Errorf("chaos: sdc leg %s: %w", name, err)
				return
			}
			*out = res
		}(i, leg.name, leg.guards, leg.inj, leg.out)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	rep.OnMatchesClean = len(rep.On.FinalParams) == len(rep.Clean.FinalParams)
	for i := range rep.Clean.FinalParams {
		if rep.On.FinalParams[i] != rep.Clean.FinalParams[i] {
			rep.OnMatchesClean = false
			break
		}
	}
	for i := range rep.Clean.FinalParams {
		d := math.Abs(rep.Off.FinalParams[i] - rep.Clean.FinalParams[i])
		if math.IsNaN(d) {
			rep.OffMaxDiff = math.Inf(1)
			break
		}
		if d > rep.OffMaxDiff {
			rep.OffMaxDiff = d
		}
	}
	rep.OffCorrupted = rep.OffMaxDiff > 1e-9
	return rep, nil
}

// guardCensus counts detections per guard name, rendered sorted.
func guardCensus(by []string) string {
	if len(by) == 0 {
		return "none"
	}
	counts := map[string]int{}
	for _, b := range by {
		counts[b]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}

// finiteOrWord renders a magnitude without ever printing a raw NaN/Inf.
func finiteOrWord(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "non-finite"
	}
	return fmt.Sprintf("%.3g", v)
}

// Render formats the ablation for golden pinning and the CLI.
func (r *SDCReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sdc ablation %s (seed %d)\n", r.Scenario, r.Seed)
	fmt.Fprintf(&b, "  injected over %d steps x %d ranks: %d flip(s), %d torn-drain(s), %d stale-replica(s)\n",
		r.Steps, r.Ranks, r.Flips, r.Torn, r.Stale)
	leg := func(name string, g *ddl.ResilientResult) {
		fmt.Fprintf(&b, "  %-11s committed %d, executed %d, lost %d; detections %d (%s), rollbacks %d, restored from [%s]\n",
			name+":", g.StepsCommitted, g.StepsExecuted, g.LostSteps,
			g.Detections, guardCensus(g.DetectedBy), g.Rollbacks,
			strings.Join(g.RestoredFrom, " "))
	}
	leg("clean", r.Clean)
	leg("detect-on", r.On)
	leg("detect-off", r.Off)
	fmt.Fprintf(&b, "  recovery: detection-on final state bit-identical to clean: %v\n", r.OnMatchesClean)
	fmt.Fprintf(&b, "  ablation: detection-off final state corrupted: %v (max divergence %s)\n",
		r.OffCorrupted, finiteOrWord(r.OffMaxDiff))
	return b.String()
}

// CheckSDCInvariants proves the ablation's contract for one scenario:
//
//  1. Replay determinism — two runs render byte-identically (at
//     different Jobs, so worker count cannot leak into the report).
//  2. Verified recovery — with guards armed, every flip is detected,
//     detection costs lost work, and the final state is bit-identical
//     to the undisturbed leg.
//  3. Honest ablation — with guards disarmed nothing is detected and
//     the corruption reaches the final state.
//
// Scenarios without sdc bursts degenerate cleanly: no injections, three
// identical legs, nothing detected anywhere.
func CheckSDCInvariants(sc *Scenario, seed uint64, cfg SDCConfig) error {
	r1, err := RunSDC(sc, seed, SDCConfig{Jobs: 1, Obs: cfg.Obs})
	if err != nil {
		return err
	}
	r2, err := RunSDC(sc, seed, SDCConfig{Jobs: 4})
	if err != nil {
		return err
	}
	if r1.Render() != r2.Render() {
		return fmt.Errorf("chaos: sdc ablation replay diverged for %s seed %d", sc.Name, seed)
	}
	if r1.Clean.Detections != 0 || r1.Clean.Rollbacks != 0 {
		return fmt.Errorf("chaos: clean leg reported faults: %d detections, %d rollbacks",
			r1.Clean.Detections, r1.Clean.Rollbacks)
	}
	if !r1.OnMatchesClean {
		return fmt.Errorf("chaos: detection-on final state diverged from the undisturbed run")
	}
	if r1.Off.Detections != 0 || r1.Off.Rollbacks != 0 {
		return fmt.Errorf("chaos: disarmed guards detected something: %d detections", r1.Off.Detections)
	}
	if r1.Flips > 0 {
		if r1.On.Detections < 1 || r1.On.Detections > r1.Flips {
			return fmt.Errorf("chaos: %d flips injected but %d detections", r1.Flips, r1.On.Detections)
		}
		if r1.On.Rollbacks < 1 || r1.On.LostSteps < 1 {
			return fmt.Errorf("chaos: detection cost no work: %d rollbacks, %d lost steps",
				r1.On.Rollbacks, r1.On.LostSteps)
		}
		if len(r1.On.RestoredFrom) == 0 {
			return fmt.Errorf("chaos: rollbacks restored from no tier")
		}
		if !r1.OffCorrupted {
			return fmt.Errorf("chaos: detection-off leg shows no corruption despite %d flips", r1.Flips)
		}
	} else {
		if r1.On.Detections != 0 || r1.OffCorrupted {
			return fmt.Errorf("chaos: sdc-free scenario reported sdc activity")
		}
	}
	return nil
}
