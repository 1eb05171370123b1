package faults

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"summitscale/internal/units"
)

// scanSlowdown and scanLinkFactor are SlowdownAt and LinkFactorAt as they
// were before the trace kept per-kind lists: a scan of every event from
// the first.
func scanSlowdown(t *Trace, at units.Seconds) float64 {
	worst := 1.0
	for _, e := range t.Events {
		if e.Time > at {
			break
		}
		if e.Kind == Straggler && at < e.Time+e.Duration && e.Factor > worst {
			worst = e.Factor
		}
	}
	return worst
}

func scanLinkFactor(t *Trace, at units.Seconds) float64 {
	worst := 1.0
	for _, e := range t.Events {
		if e.Time > at {
			break
		}
		if e.Kind == LinkDegrade && at < e.Time+e.Duration && e.Factor < worst {
			worst = e.Factor
		}
	}
	return worst
}

// lookupProbes returns every event's onset and end, the points halfway
// between consecutive ones, and points just outside the trace.
func lookupProbes(tr *Trace) []units.Seconds {
	var marks []units.Seconds
	for _, e := range tr.Events {
		marks = append(marks, e.Time, e.Time+e.Duration)
	}
	probes := []units.Seconds{-1, 0, tr.Horizon, 2 * tr.Horizon}
	for i, m := range marks {
		probes = append(probes, m, units.Seconds(math.Nextafter(float64(m), math.Inf(-1))))
		if i > 0 {
			probes = append(probes, (marks[i-1]+m)/2)
		}
	}
	return probes
}

// withSDCEvents returns tr with a silent corruption, a torn write and a
// stale replica every 20 minutes, kept in onset order.
func withSDCEvents(tr *Trace) *Trace {
	events := slices.Clone(tr.Events)
	for at := units.Seconds(0); at < tr.Horizon; at += 20 * units.Minute {
		for _, k := range []Kind{SilentCorruption, TornWrite, StaleReplica} {
			events = append(events, Event{Time: at, Kind: k, Node: 1, Word: 3, Bit: 5})
		}
	}
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Time, b.Time) })
	return NewTrace(tr.Params, tr.Seed, tr.Horizon, events)
}

// TestLookupsMatchFullScan: on generated traces, both lookups return the
// full scan's bits at every event onset and end and between them. The
// storm-rate traces draw stragglers and degraded links about once a
// minute on a 64-node job, so tens of episodes overlap at any time, and
// also carry the SDC classes the lookups must skip, placed as
// chaos.Compile places them.
func TestLookupsMatchFullScan(t *testing.T) {
	storm := Params{
		Nodes: 64, NodeMTBF: 30 * units.Day, Shape: 0.7,
		StragglerMTBE: units.Hour, StragglerFactor: 2.5, StragglerDuration: 30 * units.Minute,
		LinkMTBE: units.Hour, LinkFactor: 0.3, LinkDuration: 20 * units.Minute,
	}
	cases := []struct {
		name    string
		p       Params
		horizon units.Seconds
		sdc     bool
	}{
		{"summit", summitParams(), 48 * units.Hour, false},
		{"storm", storm, 6 * units.Hour, true},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			tr := tc.p.Generate(seed, tc.horizon)
			if tc.sdc {
				tr = withSDCEvents(tr)
			}
			if tr.Count(Straggler) == 0 || tr.Count(LinkDegrade) == 0 {
				t.Fatalf("%s seed %d: trace has no transient episodes to look up", tc.name, seed)
			}
			for _, at := range lookupProbes(tr) {
				if got, want := tr.SlowdownAt(at), scanSlowdown(tr, at); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed %d: SlowdownAt(%v) = %v, full scan %v", tc.name, seed, at, got, want)
				}
				if got, want := tr.LinkFactorAt(at), scanLinkFactor(tr, at); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed %d: LinkFactorAt(%v) = %v, full scan %v", tc.name, seed, at, got, want)
				}
			}
		}
	}
}
