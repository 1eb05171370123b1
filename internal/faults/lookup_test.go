package faults

import (
	"math"
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

// TestLookupsMatchFullScan: on generated traces, both lookups return the
// full scan's bits at every event onset and end and between them. The
// storm-rate traces draw stragglers and degraded links about once a
// minute on a 64-node job, so tens of episodes overlap at any time, and
// also carry the SDC classes the lookups must skip.
func TestLookupsMatchFullScan(t *testing.T) {
	storm := Params{
		Nodes: 64, NodeMTBF: 30 * units.Day, Shape: 0.7,
		StragglerMTBE: units.Hour, StragglerFactor: 2.5, StragglerDuration: 30 * units.Minute,
		LinkMTBE: units.Hour, LinkFactor: 0.3, LinkDuration: 20 * units.Minute,
		SDCMTBE: 12 * units.Hour, SDCWords: 1 << 10, TornWriteMTBE: 12 * units.Hour, StaleReplicaMTBE: 12 * units.Hour,
	}
	cases := []struct {
		name    string
		p       Params
		horizon units.Seconds
	}{
		{"summit", summitParams(), 48 * units.Hour},
		{"storm", storm, 6 * units.Hour},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			tr := tc.p.Generate(seed, tc.horizon)
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
