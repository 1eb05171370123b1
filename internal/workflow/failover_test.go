package workflow

import (
	"testing"

	"summitscale/internal/obs"
	"summitscale/internal/units"
)

func tasksOf(n int, d units.Seconds) []HedgedTask {
	out := make([]HedgedTask, n)
	for i := range out {
		out[i] = HedgedTask{Name: "t", Duration: d}
	}
	return out
}

// TestFailoverRoutesAroundOutage: with the primary dark the policy routes
// everything to the backup facility without waiting.
func TestFailoverRoutesAroundOutage(t *testing.T) {
	rep, err := RunFailoverCampaign(FailoverPolicy{
		Facilities: []string{"summit", "perlmutter"},
		Outages:    FacilityOutages{"summit": {{From: 0, To: 100}}},
	}, tasksOf(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 3 || rep.WaitTime != 0 || rep.Failovers != 0 {
		t.Fatalf("unexpected report: %v", rep)
	}
	if rep.PerFacility["perlmutter"] != 3 {
		t.Fatalf("tasks not rerouted: %v", rep.PerFacility)
	}
	if rep.Makespan != 30 {
		t.Fatalf("makespan %v, want 30", float64(rep.Makespan))
	}
}

// TestFailoverBeatsWaiting is the policy-comparison regression the RS4
// study pins: against the same outage, rerouting to a slower backup still
// finishes the campaign far ahead of waiting the outage out — remove the
// failover and the makespan collapses.
func TestFailoverBeatsWaiting(t *testing.T) {
	outages := FacilityOutages{"summit": {{From: 50, To: 500}}}
	work := tasksOf(5, 20)

	failover, err := RunFailoverCampaign(FailoverPolicy{
		Facilities: []string{"summit", "perlmutter"},
		Speed:      map[string]float64{"perlmutter": 0.5},
		Outages:    outages,
	}, work)
	if err != nil {
		t.Fatal(err)
	}
	waiting, err := RunFailoverCampaign(FailoverPolicy{
		Facilities: []string{"summit"},
		Outages:    outages,
	}, work)
	if err != nil {
		t.Fatal(err)
	}
	if failover.Makespan >= waiting.Makespan {
		t.Fatalf("failover makespan %v not below wait-out %v",
			float64(failover.Makespan), float64(waiting.Makespan))
	}
	if failover.WaitTime != 0 || waiting.WaitTime == 0 {
		t.Fatalf("wait accounting wrong: failover %v, waiting %v",
			float64(failover.WaitTime), float64(waiting.WaitTime))
	}
	if failover.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", failover.Failovers)
	}
}

// TestHedgeRescuesKilledPrimary: the backup launch fires before the
// outage kills the primary, so the task completes on the backup without a
// restart-from-scratch failover — earlier than the unhedged run.
func TestHedgeRescuesKilledPrimary(t *testing.T) {
	outages := FacilityOutages{"summit": {{From: 10, To: 50}}}
	work := tasksOf(1, 20)

	hedged, err := RunFailoverCampaign(FailoverPolicy{
		Facilities: []string{"summit", "perlmutter"},
		Outages:    outages,
		Hedge:      5,
	}, work)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Hedges != 1 || hedged.HedgeWins != 1 || hedged.Failovers != 0 {
		t.Fatalf("hedge accounting wrong: %v", hedged)
	}
	if hedged.Makespan != 25 { // backup starts at 5, runs 20
		t.Fatalf("hedged makespan %v, want 25", float64(hedged.Makespan))
	}

	unhedged, err := RunFailoverCampaign(FailoverPolicy{
		Facilities: []string{"summit", "perlmutter"},
		Outages:    outages,
	}, work)
	if err != nil {
		t.Fatal(err)
	}
	if unhedged.Makespan <= hedged.Makespan {
		t.Fatalf("hedge not load-bearing: hedged %v vs unhedged %v",
			float64(hedged.Makespan), float64(unhedged.Makespan))
	}
}

// TestHedgeWinsOnSpeed: no outage at all — the backup on a faster
// facility simply beats the slow primary to the finish line.
func TestHedgeWinsOnSpeed(t *testing.T) {
	rep, err := RunFailoverCampaign(FailoverPolicy{
		Facilities: []string{"cs2", "summit"},
		Speed:      map[string]float64{"cs2": 0.5},
		Hedge:      2,
	}, tasksOf(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HedgeWins != 1 || rep.PerFacility["summit"] != 1 {
		t.Fatalf("fast backup did not win: %v", rep)
	}
	if rep.Makespan != 22 { // hedge at 2 + 20s on the unit-speed backup
		t.Fatalf("makespan %v, want 22", float64(rep.Makespan))
	}
}

// TestCircuitBreakerTrips: two consecutive losses on a flapping facility
// open its breaker; later tasks route straight to the backup without
// probing the sick site again.
func TestCircuitBreakerTrips(t *testing.T) {
	br := NewCircuitBreaker(2, 1000)
	rep, err := RunFailoverCampaign(FailoverPolicy{
		Facilities: []string{"summit", "perlmutter"},
		Outages:    FacilityOutages{"summit": {{From: 5, To: 8}, {From: 18, To: 21}}},
		Breaker:    br,
		Obs:        obs.New(),
	}, tasksOf(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerTrips != 1 || br.Trips() != 1 {
		t.Fatalf("breaker trips %d (%d), want 1", rep.BreakerTrips, br.Trips())
	}
	if rep.Failovers != 2 {
		t.Fatalf("failovers %d, want 2", rep.Failovers)
	}
	if rep.PerFacility["perlmutter"] != 4 {
		t.Fatalf("post-trip tasks not kept off the sick facility: %v", rep.PerFacility)
	}
	if !br.Allow("summit", 1500) {
		t.Fatal("breaker must half-close after its cooldown")
	}
}

// TestFailoverDeterministic: the engine is pure simulated clock — the
// same policy and schedule replay to the identical report.
func TestFailoverDeterministic(t *testing.T) {
	run := func() string {
		rep, err := RunFailoverCampaign(FailoverPolicy{
			Facilities: []string{"summit", "perlmutter", "thetagpu"},
			Speed:      map[string]float64{"thetagpu": 0.25},
			Outages: FacilityOutages{
				"summit":     {{From: 5, To: 8}, {From: 18, To: 21}, {From: 40, To: 90}},
				"perlmutter": {{From: 30, To: 60}},
			},
			Breaker: NewCircuitBreaker(2, 100),
			Hedge:   6,
		}, tasksOf(8, 11))
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("failover replay diverged:\n%s\n%s", a, b)
	}
}

func TestFailoverValidates(t *testing.T) {
	good := tasksOf(1, 1)
	for name, p := range map[string]FailoverPolicy{
		"no facilities": {},
		"unnamed":       {Facilities: []string{""}},
		"duplicate":     {Facilities: []string{"a", "a"}},
		"bad speed":     {Facilities: []string{"a"}, Speed: map[string]float64{"a": 0}},
		"neg hedge":     {Facilities: []string{"a"}, Hedge: -1},
		"bad window":    {Facilities: []string{"a"}, Outages: FacilityOutages{"a": {{From: 5, To: 5}}}},
		"overlap": {Facilities: []string{"a"},
			Outages: FacilityOutages{"a": {{From: 0, To: 10}, {From: 5, To: 15}}}},
	} {
		if _, err := RunFailoverCampaign(p, good); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := RunFailoverCampaign(FailoverPolicy{Facilities: []string{"a"}},
		tasksOf(1, 0)); err == nil {
		t.Error("zero-duration task accepted")
	}
	for _, bad := range []func(){
		func() { NewCircuitBreaker(0, 10) },
		func() { NewCircuitBreaker(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("degenerate breaker accepted")
				}
			}()
			bad()
		}()
	}
}
