package chaos

import (
	"fmt"
	"strings"

	"summitscale/internal/bench"
	"summitscale/internal/faults"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
	"summitscale/internal/sched"
	"summitscale/internal/units"
)

// CampaignChaosReport compares a multi-workload benchmark campaign run
// under one compiled chaos scenario with the adaptive-checkpoint
// degradation policy on and off. The headline is machine-level: with
// adaptive checkpointing every instance bounds its lost work, so the
// campaign's makespan and utilization degrade gracefully; without
// checkpoints a single failure restarts an instance from scratch and
// long instances may never amortize.
type CampaignChaosReport struct {
	Scenario    string
	Platform    string
	Campaign    string
	Seed        uint64
	Compression float64 // scenario seconds per campaign second
	Fails       int     // node-failure events replayed into the window

	// Base is the failure-free campaign the scenario perturbs.
	Base *bench.Report

	Instances []CampaignInstanceChaos
	// Adaptive/Naive are the rescheduled campaigns under each policy.
	Adaptive, Naive sched.Stats
}

// CampaignInstanceChaos is one instance's fate under both policies.
type CampaignInstanceChaos struct {
	ID       int
	Workload string
	Failures int
	// Walls are the fault-inflated training walls (stage-in excluded).
	AdaptiveWall, NaiveWall units.Seconds
	// Effs are useful-work / wall for each policy.
	AdaptiveEff, NaiveEff float64
}

// CampaignStorm is the campaign suite's reference adversarial scenario:
// an elevated background failure process (a bad week, not the fleet
// average) plus two correlated cascades, sized to the full machine.
// Like ServingStorm it is deliberately not a builtin — RS3's goldens
// pin the builtin list.
func CampaignStorm() *Scenario {
	return MustParse(`
name campaign-storm
nodes 4608
horizon 24h
background mtbf 60d shape 0.7
cascade at 5h count 6 spacing 10m spread 1024
cascade at 14h count 6 spacing 10m spread 1024
repair at 20h count 8
`)
}

// RunCampaign replays a chaos scenario against a benchmark campaign.
// The scenario's node-failure schedule is compressed onto the
// failure-free campaign's makespan (an event at scenario time t lands
// at campaign time t·(makespan/scenario-horizon)); each instance then
// endures the failures that fall inside its scheduled run window,
// thinned to its share of the machine's nodes. Every instance replays
// its failure set twice — with the adaptive Daly-interval checkpoint
// policy, and with no checkpointing at all (interval = total work) —
// and both fault-inflated campaigns are rescheduled through
// internal/sched for the machine-level comparison. The report is a
// pure function of (platform, scenario, seed, campaign).
func RunCampaign(p platform.Platform, sc *Scenario, seed uint64, c bench.Campaign, workers int, o *obs.Observer) (*CampaignChaosReport, error) {
	if sc.Horizon <= 0 {
		return nil, fmt.Errorf("chaos: scenario %q has no horizon", sc.Name)
	}
	base, err := bench.RunCampaign(p, c, workers, o)
	if err != nil {
		return nil, err
	}
	schedule, err := sc.Compile(seed)
	if err != nil {
		return nil, err
	}
	k := base.Sched.Makespan / float64(sc.Horizon)

	// Compressed campaign-time node failures with the scenario's node
	// index rescaled onto this machine, in trace (time) order.
	type failure struct {
		t    float64
		node int
	}
	var fails []failure
	for _, ev := range schedule.Trace.Events {
		if ev.Kind == faults.NodeFailure {
			node := ev.Node
			if sc.Nodes > 0 && sc.Nodes != p.Nodes {
				node = ev.Node * p.Nodes / sc.Nodes
			}
			fails = append(fails, failure{t: float64(ev.Time) * k, node: node})
		}
	}

	// Replay the failure-free schedule through a first-fit node
	// allocator so every instance owns concrete node intervals; a
	// failure then hits exactly the instance holding that node at that
	// time — which is what lets a clustered cascade take out one big
	// job while its neighbours keep training.
	ranges := assignNodeRanges(base, p.Nodes)

	rep := &CampaignChaosReport{
		Scenario:    sc.Name,
		Platform:    p.Name,
		Campaign:    c.Name,
		Seed:        seed,
		Compression: 1 / k,
		Fails:       len(fails),
		Base:        base,
		Instances:   make([]CampaignInstanceChaos, len(base.Instances)),
	}

	adaptiveJobs := make([]sched.Job, len(base.Instances))
	naiveJobs := make([]sched.Job, len(base.Instances))
	for i, ir := range base.Instances {
		// Failures inside this instance's run window that land on one
		// of its allocated nodes, re-based to instance-relative time.
		var events []faults.Event
		for _, f := range fails {
			if f.t < ir.Start || f.t >= ir.End || !inRanges(ranges[ir.ID], f.node) {
				continue
			}
			events = append(events, faults.Event{Time: units.Seconds(f.t - ir.Start), Kind: faults.NodeFailure})
		}
		trace := faults.NewTrace(faults.ParamsFor(p.Machine, ir.TTT.Nodes), seed,
			units.Seconds(base.Sched.Makespan), events)

		shape := faults.RunShape{
			TotalWork: ir.TTT.Train,
			// Checkpoint: quiesce and write model+optimizer state.
			CheckpointCost: 30,
			// Restart: relaunch plus re-staging the dataset.
			RestartCost: 120 + ir.TTT.StageIn,
		}
		// Prime the controller with the storm's observed machine-wide
		// rate scaled to this instance's node share, not the hardware
		// fleet average: compression packs a day of failures into the
		// campaign window, and a Daly interval solved against the
		// fleet-average MTBF would exceed these walls entirely (no
		// checkpoints — indistinguishable from the naive policy it is
		// being compared against).
		prior := trace.Params.SystemMTBF()
		if len(fails) > 0 && base.Sched.Makespan > 0 {
			observed := units.Seconds(base.Sched.Makespan * float64(p.Nodes) /
				(float64(len(fails)) * float64(ir.TTT.Nodes)))
			if observed < prior {
				prior = observed
			}
		}
		adaptive := faults.SimulateAdaptive(shape, prior, trace, nil)
		naive := faults.Simulate(shape, shape.TotalWork, trace, nil)

		rep.Instances[i] = CampaignInstanceChaos{
			ID:           ir.ID,
			Workload:     ir.Workload,
			Failures:     len(events),
			AdaptiveWall: adaptive.Wall,
			NaiveWall:    naive.Wall,
			AdaptiveEff:  adaptive.Efficiency(shape),
			NaiveEff:     naive.Efficiency(shape),
		}
		sub := c.Instances[i].Submit
		adaptiveJobs[i] = sched.Job{
			ID: ir.ID, Program: ir.Workload, Nodes: ir.TTT.Nodes,
			Walltime: float64(ir.TTT.StageIn + adaptive.Wall), Submit: sub,
		}
		naiveJobs[i] = sched.Job{
			ID: ir.ID, Program: ir.Workload, Nodes: ir.TTT.Nodes,
			Walltime: float64(ir.TTT.StageIn + naive.Wall), Submit: sub,
		}
		o.Inc("chaos.campaign.instances")
		o.Add("chaos.campaign.failures", int64(len(events)))
	}

	s := sched.NewScheduler(p.Nodes)
	rep.Adaptive = s.Summarize(s.Schedule(adaptiveJobs))
	rep.Naive = s.Summarize(s.Schedule(naiveJobs))
	o.Set("chaos.campaign.adaptive_makespan", rep.Adaptive.Makespan)
	o.Set("chaos.campaign.naive_makespan", rep.Naive.Makespan)
	return rep, nil
}

// span is a half-open node interval [lo, hi).
type span struct{ lo, hi int }

// inRanges reports whether the node lies in any of the spans.
func inRanges(spans []span, node int) bool {
	for _, s := range spans {
		if node >= s.lo && node < s.hi {
			return true
		}
	}
	return false
}

// assignNodeRanges replays the campaign's placement events through a
// first-fit node allocator: instances acquire the lowest-numbered free
// nodes at their start (possibly fragmented) and release them at their
// end. Deterministic — events sort by (time, end-before-start, ID) —
// so the hit pattern is a pure function of the schedule.
func assignNodeRanges(base *bench.Report, total int) map[int][]span {
	type ev struct {
		t     float64
		start bool
		id    int
		nodes int
	}
	evs := make([]ev, 0, 2*len(base.Instances))
	for _, ir := range base.Instances {
		evs = append(evs, ev{t: ir.Start, start: true, id: ir.ID, nodes: ir.TTT.Nodes})
		evs = append(evs, ev{t: ir.End, start: false, id: ir.ID})
	}
	sortEvents := func(a, b ev) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		if a.start != b.start {
			return !a.start // frees before allocations at the same instant
		}
		return a.id < b.id
	}
	for i := 1; i < len(evs); i++ { // insertion sort: n is small, keeps it dependency-free
		for j := i; j > 0 && sortEvents(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}

	free := []span{{0, total}}
	held := map[int][]span{}
	for _, e := range evs {
		if !e.start {
			// Return the instance's spans and re-merge the free list.
			free = append(free, held[e.id]...)
			for i := 1; i < len(free); i++ {
				for j := i; j > 0 && free[j].lo < free[j-1].lo; j-- {
					free[j], free[j-1] = free[j-1], free[j]
				}
			}
			merged := free[:0]
			for _, s := range free {
				if n := len(merged); n > 0 && merged[n-1].hi >= s.lo {
					if s.hi > merged[n-1].hi {
						merged[n-1].hi = s.hi
					}
					continue
				}
				merged = append(merged, s)
			}
			free = merged
			continue
		}
		need := e.nodes
		var got []span
		rest := free[:0]
		for _, s := range free {
			if need == 0 {
				rest = append(rest, s)
				continue
			}
			take := s.hi - s.lo
			if take > need {
				take = need
			}
			got = append(got, span{s.lo, s.lo + take})
			need -= take
			if s.lo+take < s.hi {
				rest = append(rest, span{s.lo + take, s.hi})
			}
		}
		free = rest
		held[e.id] = got
	}
	return held
}

// Render formats the comparison deterministically.
func (r *CampaignChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign: scenario %s x campaign %q on %s (seed %d, %.0fx compressed, %d failure events)\n",
		r.Scenario, r.Campaign, r.Platform, r.Seed, r.Compression, r.Fails)
	fmt.Fprintf(&b, "  %2s %-12s %5s %14s %14s %8s %8s\n",
		"id", "workload", "hits", "adaptive", "no-ckpt", "eff-a", "eff-n")
	for _, ic := range r.Instances {
		fmt.Fprintf(&b, "  %2d %-12s %5d %14v %14v %7.1f%% %7.1f%%\n",
			ic.ID, ic.Workload, ic.Failures, ic.AdaptiveWall, ic.NaiveWall,
			100*ic.AdaptiveEff, 100*ic.NaiveEff)
	}
	fmt.Fprintf(&b, "  adaptive ckpt: makespan %v, utilization %.1f%%\n",
		units.Seconds(r.Adaptive.Makespan), 100*r.Adaptive.Utilization)
	fmt.Fprintf(&b, "  no ckpt      : makespan %v, utilization %.1f%%\n",
		units.Seconds(r.Naive.Makespan), 100*r.Naive.Utilization)
	fmt.Fprintf(&b, "  baseline     : makespan %v (failure-free)\n",
		units.Seconds(r.Base.Sched.Makespan))
	return b.String()
}
