package faults

import (
	"math"
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/units"
)

// FuzzTraceGenerate drives trace generation across the parameter space:
// arbitrary seeds and (clamped-to-sane) shapes must never panic, and every
// generated trace must hold the structural invariants the simulators rely
// on — sorted non-negative onsets inside the horizon, node indices in
// range, non-negative durations, and severity factors on the documented
// side of 1 for each kind. Params.FailureTimes, which draws the failure
// stream alone, must return the trace's failure onsets bit for bit.
func FuzzTraceGenerate(f *testing.F) {
	f.Add(uint64(1), 64, float64(30*24*3600), float64(48*3600), 1.0)
	f.Add(uint64(20220523), 4608, float64(2*8766*3600), float64(24*3600), 0.7)
	f.Add(uint64(7), 1, float64(3600), float64(600), 3.0)
	f.Add(uint64(11), 512, float64(24*3600), float64(48*3600), 0.3)
	f.Add(uint64(12), 512, float64(24*3600), float64(48*3600), 4.0)
	f.Fuzz(func(t *testing.T, seed uint64, nodes int, mtbf, horizon, shape float64) {
		// Clamp the numeric knobs into the domain Params documents; the
		// fuzzer's job is exploring seeds and magnitudes inside it, not
		// rediscovering the constructor panics.
		if nodes < 1 {
			nodes = 1
		}
		if nodes > 10000 {
			nodes = 10000
		}
		if !(mtbf > 0) || math.IsNaN(mtbf) || math.IsInf(mtbf, 0) {
			mtbf = float64(DefaultNodeMTBF)
		}
		mtbf = math.Min(math.Max(mtbf, 3600), float64(10*units.Year))
		if !(horizon > 0) || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
			horizon = 3600
		}
		horizon = math.Min(math.Max(horizon, 60), float64(48*units.Hour))
		if !(shape > 0) || math.IsNaN(shape) || math.IsInf(shape, 0) {
			shape = 1
		}
		shape = math.Min(math.Max(shape, 0.3), 4)

		p := ParamsFor(machine.Machine{Nodes: nodes}, nodes)
		p.NodeMTBF = units.Seconds(mtbf)
		p.Shape = shape
		tr := p.Generate(seed, units.Seconds(horizon))

		prev := units.Seconds(0)
		for i, e := range tr.Events {
			if e.Time < prev {
				t.Fatalf("event %d out of order: %v after %v", i, e.Time, prev)
			}
			prev = e.Time
			if e.Time < 0 || e.Time >= tr.Horizon {
				t.Fatalf("event %d onset %v outside [0, %v)", i, e.Time, tr.Horizon)
			}
			if e.Node < 0 || e.Node >= p.Nodes {
				t.Fatalf("event %d node %d outside [0, %d)", i, e.Node, p.Nodes)
			}
			if e.Duration < 0 {
				t.Fatalf("event %d negative duration %v", i, e.Duration)
			}
			switch e.Kind {
			case NodeFailure:
				if e.Duration != 0 || e.Factor != 0 {
					t.Fatalf("node failure %d carries transient fields: %+v", i, e)
				}
			case Straggler:
				if e.Factor <= 1 {
					t.Fatalf("straggler %d factor %v must exceed 1", i, e.Factor)
				}
			case LinkDegrade:
				if !(e.Factor > 0 && e.Factor < 1) {
					t.Fatalf("link degrade %d factor %v outside (0,1)", i, e.Factor)
				}
			default:
				t.Fatalf("event %d has kind %v, which Generate does not draw", i, e.Kind)
			}
		}
		// The census must agree with the event list.
		n := tr.Count(NodeFailure) + tr.Count(Straggler) + tr.Count(LinkDegrade)
		if n != len(tr.Events) {
			t.Fatalf("census %d vs %d events", n, len(tr.Events))
		}
		// The failure-only draw matches the full trace, bit for bit.
		want, got := tr.FailureTimes(), p.FailureTimes(seed, units.Seconds(horizon))
		if len(got) != len(want) {
			t.Fatalf("FailureTimes drew %d failures, the trace holds %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
				t.Fatalf("failure %d: FailureTimes %v, trace %v", i, got[i], want[i])
			}
		}
		// Replay determinism: the same triple yields the same trace.
		again := p.Generate(seed, units.Seconds(horizon))
		if len(again.Events) != len(tr.Events) {
			t.Fatalf("replay produced %d events, first run %d", len(again.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if tr.Events[i] != again.Events[i] {
				t.Fatalf("replay event %d diverged: %+v vs %+v", i, tr.Events[i], again.Events[i])
			}
		}
	})
}
