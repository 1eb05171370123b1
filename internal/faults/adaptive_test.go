package faults

import (
	"math"
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/units"
)

// burstTrace builds a trace whose failures arrive every `gap` seconds —
// an effective system MTBF of `gap`, regardless of what any prior says.
func burstTrace(gap, horizon units.Seconds) *Trace {
	tr := &Trace{Params: Params{Nodes: 64, NodeMTBF: 64 * gap}, Horizon: horizon}
	for t := gap; t < horizon; t += gap {
		tr.Events = append(tr.Events, Event{Time: t, Kind: NodeFailure})
	}
	return tr
}

// TestAdaptiveBeatsMisestimatedStatic is the controller's reason to
// exist: when the observed failure rate is far above the prior (a cascade
// regime), the static Daly cadence solved from the prior bleeds lost work,
// and the online re-estimating policy finishes the same run sooner.
func TestAdaptiveBeatsMisestimatedStatic(t *testing.T) {
	shape := RunShape{TotalWork: 12 * units.Hour, CheckpointCost: 60, RestartCost: 300}
	prior := 24 * units.Hour                            // what the hardware sheet claims
	tr := burstTrace(30*units.Minute, 20*24*units.Hour) // what the machine does

	static := Simulate(shape, DalyInterval(shape.CheckpointCost, prior), tr, nil)
	adaptive := SimulateAdaptive(shape, prior, tr, nil)
	if adaptive.Wall >= static.Wall {
		t.Fatalf("adaptive wall %v not better than misestimated static %v", adaptive.Wall, static.Wall)
	}
	if adaptive.LostWork >= static.LostWork {
		t.Fatalf("adaptive lost work %v not below static %v", adaptive.LostWork, static.LostWork)
	}
}

// TestAdaptiveMatchesWellEstimatedStatic: with a truthful prior and a
// stationary trace the controller should track the static optimum, not
// oscillate away from it.
func TestAdaptiveMatchesWellEstimatedStatic(t *testing.T) {
	shape := RunShape{TotalWork: 12 * units.Hour, CheckpointCost: 60, RestartCost: 300}
	mtbf := 2 * units.Hour
	tr := burstTrace(mtbf, 20*24*units.Hour)
	static := Simulate(shape, DalyInterval(shape.CheckpointCost, mtbf), tr, nil)
	adaptive := SimulateAdaptive(shape, mtbf, tr, nil)
	if ratio := float64(adaptive.Wall) / float64(static.Wall); ratio > 1.10 {
		t.Fatalf("adaptive wall %v is %.1f%% above the well-estimated static %v",
			adaptive.Wall, 100*(ratio-1), static.Wall)
	}
}

// TestAdaptiveDeterministic: same inputs, same outcome, run to run.
func TestAdaptiveDeterministic(t *testing.T) {
	p := ParamsFor(machine.Summit(), 512)
	tr := p.Generate(99, 48*units.Hour)
	shape := RunShape{TotalWork: 12 * units.Hour, CheckpointCost: 45, RestartCost: 200}
	a := SimulateAdaptive(shape, p.SystemMTBF(), tr, nil)
	b := SimulateAdaptive(shape, p.SystemMTBF(), tr, nil)
	if a != b {
		t.Fatalf("adaptive replay diverged: %+v vs %+v", a, b)
	}
}

func TestAdaptiveIntervalClamps(t *testing.T) {
	// Past twice the posterior MTBF, Daly clamps to the MTBF, which is
	// below the checkpoint cost: the interval is the write itself.
	if iv := adaptiveInterval(units.Hour, 3*units.Hour, 0, 0); iv != 3*units.Hour {
		t.Fatalf("huge delta not clamped to the checkpoint cost: %v", iv)
	}
	// 9,000 s with 9 failures behind a 1,000 s prior: posterior 1,000 s.
	if iv, want := adaptiveInterval(1000, 8, 9000, 9), DalyInterval(8, 1000); iv != want {
		t.Fatalf("interval %v, want Daly at the posterior MTBF %v", iv, want)
	}
}

// Satellite guards: explicit panics/clamps instead of silent NaN/Inf.

func TestRunShapeValidate(t *testing.T) {
	good := RunShape{TotalWork: 100, CheckpointCost: 1, RestartCost: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	for _, bad := range []RunShape{
		{TotalWork: 0, CheckpointCost: 1},
		{TotalWork: -5, CheckpointCost: 1},
		{TotalWork: units.Seconds(math.NaN())},
		{TotalWork: 100, CheckpointCost: -1},
		{TotalWork: 100, RestartCost: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("shape %+v accepted", bad)
		}
	}
}

func TestDalyGuardsPanicExplicitly(t *testing.T) {
	cases := []func(){
		func() { DalyInterval(0, units.Hour) },
		func() { DalyInterval(10, 0) },
		func() { DalyInterval(10, -units.Hour) },
		func() { DalyOverhead(0, 10, units.Hour) },
		func() { DalyOverhead(100, 0, units.Hour) },
		func() { DalyOverhead(100, 10, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: degenerate Daly input accepted", i)
				}
			}()
			fn()
		}()
	}
}

// TestDalyIntervalClampedAtMTBF: once the checkpoint cost passes MTBF/2
// the first-order root exceeds the MTBF itself; the guard clamps it so a
// sweep grid built from it stays meaningful (and finite).
func TestDalyIntervalClampedAtMTBF(t *testing.T) {
	mtbf := units.Seconds(1000)
	if iv := DalyInterval(900, mtbf); iv != mtbf {
		t.Fatalf("interval %v not clamped to MTBF %v", iv, mtbf)
	}
	if iv := DalyInterval(8, 10000); iv != 400 {
		t.Fatalf("normal regime perturbed by the clamp: %v", iv)
	}
}
