package chaos

import (
	"fmt"
	"strings"

	"summitscale/internal/faults"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
	"summitscale/internal/units"
)

// ServeChaosReport compares the serving layer's behaviour under one
// compiled scenario with the shed-load degradation policy on and off.
// The headline is availability under correlated failure: with shedding,
// Bulk traffic is refused early so Interactive requests keep a bounded
// queue (and therefore bounded p99) while capacity is degraded; without
// it the queue fills with mixed traffic and Interactive requests inherit
// the backlog — or bounce off the hard cap entirely.
type ServeChaosReport struct {
	Scenario    string
	Platform    string
	Seed        uint64
	Compression float64 // scenario seconds per serving second
	Fails       int     // replica-loss events replayed into the window
	Repairs     int

	Shed   *serve.Report // shed policy on (DefaultAdmission)
	NoShed *serve.Report // same capacity, ShedAt disabled
}

// ServingStorm is the serving layer's reference adversarial scenario: a
// three-node cascade halves the replica fleet, then a near-continuous
// link-degrade window quadruples service times right across the day-peak
// burst, and repairs land only afterwards. Unlike the total-outage
// builtins (which flatten every policy equally), this keeps capacity
// partial — the regime where the shed policy visibly buys interactive
// latency and availability. It is deliberately not in the builtin sweep:
// RS3's goldens pin the builtin list.
func ServingStorm() *Scenario {
	return MustParse(`
name serving-storm
nodes 512
horizon 24h
background mtbf 4y shape 1
cascade at 4h count 3 spacing 30m spread 64
flap from 9h to 14h period 20m duty 0.95 factor 0.25
repair at 16h count 3
`)
}

// RunServe replays a chaos scenario against the surrogate-serving layer.
// The scenario's schedule (node failures, repairs, link-flap windows) is
// compressed onto the traffic horizon: an event at scenario time t lands
// at serving time t·(horizon/scenario-horizon). Node failures cost one
// serving replica each (the serving allocation rides the same machine as
// the campaign, so correlated cascades hit it too); repairs return them;
// link-degrade windows inflate service and transit times by 1/factor.
// Both policy runs serve the caller's request stream reqs, generated over
// the traffic horizon, and leave it unchanged, so concurrent replays may
// share one stream; the report is a pure function of (platform, scenario,
// seed, stream).
func RunServe(p platform.Platform, sc *Scenario, seed uint64, models []serve.Model, reqs []serve.Request, horizon units.Seconds, o *obs.Observer) (*ServeChaosReport, error) {
	if sc.Horizon <= 0 {
		return nil, fmt.Errorf("chaos: scenario %q has no horizon", sc.Name)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("chaos: serving traffic has no horizon")
	}
	sched, err := sc.Compile(seed)
	if err != nil {
		return nil, err
	}
	k := float64(horizon) / float64(sc.Horizon)

	var fails []units.Seconds
	for _, ev := range sched.Trace.Events {
		if ev.Kind == faults.NodeFailure {
			fails = append(fails, units.Seconds(float64(ev.Time)*k))
		}
	}
	var repairs []units.Seconds
	for _, r := range sched.Repairs {
		at := units.Seconds(float64(r.At) * k)
		for i := 0; i < r.Count; i++ {
			repairs = append(repairs, at)
		}
	}
	linkAt := func(t units.Seconds) float64 {
		return sched.LinkFactorAt(units.Seconds(float64(t) / k))
	}

	replicas := serve.ReplicasFor(p, len(models))
	batch := serve.DefaultBatch()
	shedAdm := serve.DefaultAdmission(replicas, batch.MaxBatch)
	noShedAdm := shedAdm
	noShedAdm.ShedAt = 0

	base := serve.Config{
		Platform: p, Models: models, Batch: batch, Replicas: replicas,
		Horizon: horizon, LinkFactorAt: linkAt,
		ReplicaFails: fails, ReplicaRepairs: repairs,
	}

	withShed := base
	withShed.Admission = shedAdm
	withShed.Obs = o // only one run feeds the observer, or metrics would double-count
	shedRep, err := serve.Run(withShed, reqs)
	if err != nil {
		return nil, err
	}

	withoutShed := base
	withoutShed.Admission = noShedAdm
	noShedRep, err := serve.Run(withoutShed, reqs)
	if err != nil {
		return nil, err
	}

	return &ServeChaosReport{
		Scenario:    sc.Name,
		Platform:    p.Name,
		Seed:        seed,
		Compression: 1 / k,
		Fails:       len(fails),
		Repairs:     len(repairs),
		Shed:        shedRep,
		NoShed:      noShedRep,
	}, nil
}

// InteractiveServed counts served Interactive responses in a run.
func interactiveServed(r *serve.Report) int {
	n := 0
	for _, resp := range r.Responses {
		if resp.Tier == serve.Interactive {
			n++
		}
	}
	return n
}

// Render formats the comparison deterministically.
func (r *ServeChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos serving: scenario %s on %s (seed %d, %.0fx compressed, %d replica-loss, %d repair events)\n",
		r.Scenario, r.Platform, r.Seed, r.Compression, r.Fails, r.Repairs)
	fmt.Fprintf(&b, "  shed on : interactive served %d p99 %.1fms | rejected %d (shed %d) unserved %d\n",
		interactiveServed(r.Shed), 1e3*float64(r.Shed.InteractiveP99),
		r.Shed.Rejected, shedCount(r.Shed), r.Shed.Unserved)
	fmt.Fprintf(&b, "  shed off: interactive served %d p99 %.1fms | rejected %d (shed %d) unserved %d\n",
		interactiveServed(r.NoShed), 1e3*float64(r.NoShed.InteractiveP99),
		r.NoShed.Rejected, shedCount(r.NoShed), r.NoShed.Unserved)
	return b.String()
}

// shedCount totals shed rejections across a run's models.
func shedCount(r *serve.Report) int {
	n := 0
	for _, m := range r.Models {
		n += m.Shed
	}
	return n
}
