package chaos

import (
	"fmt"
	"strings"

	"summitscale/internal/faults"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
	"summitscale/internal/units"
	"summitscale/internal/workflow"
)

// Config shapes an engine run.
type Config struct {
	// Platform supplies the fabric and filesystem models (default: the
	// paper baseline, Summit).
	Platform platform.Platform
	// RingNodes is the collective's world size (default: the scenario's
	// node count, capped at 64 so step counts stay readable).
	RingNodes int
	// Obs, if non-nil, receives the run's spans and counters.
	Obs *obs.Observer
}

// Probe constants: one engine run drives every subsystem with the same
// nominal workload so scenarios stay comparable.
const (
	probeGradient = units.Bytes(1 * units.GB) // allreduce payload
	probeDataset  = units.Bytes(10 * units.TB)
	probeSteps    = 960 // elastic throughput model resolution
	probeTasks    = 12  // campaign length through the failover policy
)

// Report is one scenario applied across every subsystem, plus the
// policy-on/policy-off comparisons RS4 pins. All fields are deterministic
// functions of (scenario, seed, platform).
type Report struct {
	Scenario string
	Seed     uint64
	Summary  string

	// Checkpoint cadence on the chaos trace: the static Young/Daly policy
	// solved from the background prior vs the online adaptive controller.
	Shape     faults.RunShape
	PriorMTBF units.Seconds
	Static    faults.Outcome
	Adaptive  faults.Outcome

	// Ring allreduce under the scenario's link environment, averaged over
	// hourly launch times; bytes are conserved per launch (checked by the
	// invariant suite).
	RingNodes      int
	CleanAllReduce units.Seconds
	ChaosAllReduce units.Seconds
	BytesPerMember units.Bytes

	// Dataset staging through the shared filesystem, clean vs the deepest
	// brownout window.
	CleanStage    units.Seconds
	BrownoutStage units.Seconds

	// Elastic data-parallel throughput: wall time to the fixed step budget
	// when repaired nodes rejoin at checkpoint boundaries (grow-back) vs
	// limping on at the shrunken width.
	ShrinkOnlyWall units.Seconds
	GrowBackWall   units.Seconds

	// Campaign routing through the facility outages: the failover policy
	// (backup facility, circuit breaker, hedged launches) vs waiting every
	// outage out on the primary.
	Failover *workflow.FailoverReport
	WaitOut  *workflow.FailoverReport
}

// Run compiles the scenario at the seed and applies the schedule across
// faults, netsim, storage, ddl (throughput model), and workflow.
func Run(sc *Scenario, seed uint64, cfg Config) (*Report, error) {
	sched, err := sc.Compile(seed)
	if err != nil {
		return nil, err
	}
	if cfg.Platform.Key == "" {
		cfg.Platform = platform.Summit()
	}
	ringNodes := cfg.RingNodes
	if ringNodes <= 0 {
		ringNodes = sc.Nodes
		if ringNodes > 64 {
			ringNodes = 64
		}
	}
	ob := cfg.Obs
	// Gauges are last-writer-wins and one observer may watch several
	// scenarios at once, so each gauge name carries its scenario.
	gauge := func(name string, v float64) {
		if ob != nil {
			ob.Set("chaos."+sc.Name+"."+name, v)
		}
	}
	rep := &Report{
		Scenario:  sc.Name,
		Seed:      seed,
		Summary:   sched.Summary(),
		RingNodes: ringNodes,
	}

	// --- faults: static vs adaptive checkpoint cadence on the chaos trace.
	rep.Shape = faults.RunShape{
		TotalWork:      sc.Horizon / 2,
		CheckpointCost: 45,
		RestartCost:    180,
	}
	rep.PriorMTBF = sched.Trace.Params.SystemMTBF()
	static := faults.DalyInterval(rep.Shape.CheckpointCost, rep.PriorMTBF)
	rep.Static = faults.Simulate(rep.Shape, static, sched.Trace, nil)
	// The faults simulator publishes gauges under its own faults.* names;
	// feeding it this run's observer would race RS1/RS2 for the same keys
	// when experiments run concurrently. The chaos engine owns the
	// chaos.<scenario>.ckpt.* gauges below instead.
	rep.Adaptive = faults.SimulateAdaptive(rep.Shape, rep.PriorMTBF, sched.Trace, nil)
	gauge("ckpt.static_wall_s", float64(rep.Static.Wall))
	gauge("ckpt.adaptive_wall_s", float64(rep.Adaptive.Wall))

	// --- netsim: the collective under the flap windows, launched hourly.
	fabric := cfg.Platform.Fabric()
	rep.CleanAllReduce, rep.BytesPerMember = fabric.RingAllReduceUnder(
		ringNodes, probeGradient, 0, nil)
	launches := 0
	var chaosTotal units.Seconds
	for t := units.Seconds(0); t < sc.Horizon; t += units.Hour {
		dt, bytes := fabric.RingAllReduceUnder(ringNodes, probeGradient, t, sched.LinkFactorAt)
		if bytes != rep.BytesPerMember {
			return nil, fmt.Errorf("chaos: collective at t=%v moved %v, clean run moved %v",
				t, bytes, rep.BytesPerMember)
		}
		chaosTotal += dt
		launches++
	}
	rep.ChaosAllReduce = chaosTotal / units.Seconds(launches)
	gauge("net.mean_allreduce_s", float64(rep.ChaosAllReduce))

	// --- storage: staging through the deepest brownout.
	gpfs := cfg.Platform.GPFS()
	stageNodes := sc.Nodes
	rep.CleanStage = units.Seconds(float64(probeDataset) / float64(gpfs.ReadBW(stageNodes)))
	rep.BrownoutStage = units.Seconds(float64(probeDataset) /
		float64(gpfs.Degraded(sched.WorstBrownout()).ReadBW(stageNodes)))
	gauge("storage.brownout_stage_s", float64(rep.BrownoutStage))

	// --- ddl: elastic throughput with and without grow-back.
	stepTime := sc.Horizon / probeSteps
	rep.ShrinkOnlyWall = elasticWall(sched, ringNodes, probeSteps, stepTime, false)
	rep.GrowBackWall = elasticWall(sched, ringNodes, probeSteps, stepTime, true)
	gauge("ddl.growback_wall_s", float64(rep.GrowBackWall))

	// --- workflow: campaign routing through the facility outages.
	primary := cfg.Platform.Key
	for _, o := range sched.Outages {
		primary = o.Facility
		break
	}
	backup := primary + "-backup"
	outages := sched.FacilityOutages()
	taskDur := sc.Horizon / probeTasks / 2
	tasks := make([]workflow.HedgedTask, probeTasks)
	for i := range tasks {
		tasks[i] = workflow.HedgedTask{Name: fmt.Sprintf("task-%02d", i), Duration: taskDur}
	}
	rep.Failover, err = workflow.RunFailoverCampaign(workflow.FailoverPolicy{
		Facilities: []string{primary, backup},
		Speed:      map[string]float64{backup: 0.5},
		Outages:    outages,
		Breaker:    workflow.NewCircuitBreaker(3, 2*units.Hour),
		Hedge:      taskDur / 4,
		Obs:        ob,
	}, tasks)
	if err != nil {
		return nil, err
	}
	rep.WaitOut, err = workflow.RunFailoverCampaign(workflow.FailoverPolicy{
		Facilities: []string{primary},
		Outages:    outages,
	}, tasks)
	if err != nil {
		return nil, err
	}
	gauge("workflow.failover_makespan_s", float64(rep.Failover.Makespan))
	return rep, nil
}

// elasticWall walks the elastic throughput model: a fixed budget of steps
// on an initially full world; every trace failure before the current wall
// clock shrinks the world by one (never below one), every step costs
// base·W0/w (the global batch re-sharded over fewer ranks) times the
// trace's straggler slowdown, and — when growBack is on — repairs rejoin
// at the next checkpoint boundary (every 16 steps), capped at the initial
// width. Pure and deterministic: no filesystem, no RNG.
func elasticWall(s *Schedule, world, steps int, stepTime units.Seconds, growBack bool) units.Seconds {
	const boundary = 16
	failures := s.Trace.FailureTimes()
	w := world
	fi, ri := 0, 0
	var wall units.Seconds
	for step := 0; step < steps; step++ {
		for fi < len(failures) && failures[fi] <= wall {
			fi++
			if w > 1 {
				w--
			}
		}
		if growBack && step%boundary == 0 {
			for ri < len(s.Repairs) && s.Repairs[ri].At <= wall {
				w += s.Repairs[ri].Count
				if w > world {
					w = world
				}
				ri++
			}
		}
		wall += stepTime * units.Seconds(float64(world)/float64(w)*s.Trace.SlowdownAt(wall))
	}
	return wall
}

// Render formats the report for golden pinning and the CLI.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d)\n  %s\n", r.Scenario, r.Seed, r.Summary)
	fmt.Fprintf(&b, "  checkpoint cadence (work %.0fs, delta %.0fs, prior MTBF %.0fs):\n",
		float64(r.Shape.TotalWork), float64(r.Shape.CheckpointCost), float64(r.PriorMTBF))
	fmt.Fprintf(&b, "    static Daly:  wall %.0fs, lost %.0fs, %d failure(s), %d checkpoint(s)\n",
		float64(r.Static.Wall), float64(r.Static.LostWork), r.Static.Failures, r.Static.Checkpoints)
	fmt.Fprintf(&b, "    adaptive:     wall %.0fs, lost %.0fs, %d failure(s), %d checkpoint(s)\n",
		float64(r.Adaptive.Wall), float64(r.Adaptive.LostWork), r.Adaptive.Failures, r.Adaptive.Checkpoints)
	fmt.Fprintf(&b, "  ring allreduce (%d nodes, %.0f MB): clean %.4fs, chaos mean %.4fs, %.1f MB/member\n",
		r.RingNodes, float64(probeGradient)/1e6, float64(r.CleanAllReduce),
		float64(r.ChaosAllReduce), float64(r.BytesPerMember)/1e6)
	fmt.Fprintf(&b, "  staging %.0f TB: clean %.0fs, brownout %.0fs\n",
		float64(probeDataset)/1e12, float64(r.CleanStage), float64(r.BrownoutStage))
	fmt.Fprintf(&b, "  elastic %d steps: shrink-only %.0fs, grow-back %.0fs\n",
		probeSteps, float64(r.ShrinkOnlyWall), float64(r.GrowBackWall))
	fmt.Fprintf(&b, "  campaign: failover %s\n            wait-out %s\n",
		r.Failover, r.WaitOut)
	return b.String()
}
