package chaos

import (
	"strings"
	"testing"

	"summitscale/internal/faults"
	"summitscale/internal/units"
)

func TestParseDur(t *testing.T) {
	for in, want := range map[string]units.Seconds{
		"90":   90,
		"45s":  45,
		"10m":  600,
		"2h":   2 * units.Hour,
		"1d":   units.Day,
		"2y":   2 * units.Year,
		"0.5h": 1800,
	} {
		got, err := parseDur(in)
		if err != nil || got != want {
			t.Errorf("parseDur(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-5s", "1w", "NaN", "Infh"} {
		if _, err := parseDur(bad); err == nil {
			t.Errorf("parseDur(%q) accepted", bad)
		}
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for name, text := range map[string]string{
		"unknown directive": "name x\nnodes 4\nhorizon 1h\nfrobnicate at 1s",
		"odd pairs":         "name x\nnodes 4\nhorizon 1h\ncascade at 1s count",
		"missing key":       "name x\nnodes 4\nhorizon 1h\ncascade at 1s count 2 spacing 1s",
		"extra key":         "name x\nnodes 4\nhorizon 1h\nrepair at 1s count 2 bogus 1",
		"duplicate key":     "name x\nnodes 4\nhorizon 1h\nrepair at 1s at 2s",
		"no name":           "nodes 4\nhorizon 1h",
		"no nodes":          "name x\nhorizon 1h",
		"no horizon":        "name x\nnodes 4",
		"window outside":    "name x\nnodes 4\nhorizon 1h\nbrownout from 30m to 2h factor 0.5",
		"inverted window":   "name x\nnodes 4\nhorizon 1h\nflap from 30m to 10m period 1m duty 0.5 factor 0.5",
		"brownout factor":   "name x\nnodes 4\nhorizon 1h\nbrownout from 1m to 2m factor 1.5",
		"storm factor":      "name x\nnodes 4\nhorizon 1h\nstorm at 1m for 1m count 2 factor 0.5",
		"cascade spread":    "name x\nnodes 4\nhorizon 1h\ncascade at 1m count 2 spacing 1s spread 8",
		"repair count":      "name x\nnodes 4\nhorizon 1h\nrepair at 1m count 0",
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	sc, err := Parse(`
# worst week generator
name demo
nodes 16   # a small allocation
horizon 2h

cascade at 10m count 3 spacing 1m spread 4
`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "demo" || sc.Nodes != 16 || sc.Horizon != 2*units.Hour || len(sc.Cascades) != 1 {
		t.Fatalf("parsed %+v", sc)
	}
}

// TestBuiltinsHoldInvariants is the tentpole gate: every shipped scenario
// compiles, runs across all five subsystems, and passes the full
// invariant suite — replay determinism, non-negative time, byte
// conservation, monotone degradation, and policies beating their absence.
func TestBuiltinsHoldInvariants(t *testing.T) {
	for _, name := range Names() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInvariants(sc, 20220523, Config{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestUnknownBuiltin(t *testing.T) {
	if _, err := Builtin("no-such-storm"); err == nil ||
		!strings.Contains(err.Error(), "rack-cascade") {
		t.Fatalf("unknown builtin error should list the names, got %v", err)
	}
}

// TestAdaptiveBeatsStaticOnCascade pins the RS4 policy regression: on a
// sustained cascade regime, the static Young/Daly cadence — solved from
// the hardware-sheet prior — commits too rarely and bleeds lost work,
// while the online controller tightens its interval as failures arrive.
func TestAdaptiveBeatsStaticOnCascade(t *testing.T) {
	sc, err := Builtin("rack-cascade")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, 20220523, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adaptive.Wall >= rep.Static.Wall {
		t.Fatalf("adaptive wall %v not below static %v — the controller is not load-bearing",
			rep.Adaptive.Wall, rep.Static.Wall)
	}
	if rep.Adaptive.LostWork >= rep.Static.LostWork {
		t.Fatalf("adaptive lost work %v not below static %v",
			rep.Adaptive.LostWork, rep.Static.LostWork)
	}
}

// TestGrowBackBeatsShrinkOnly: the cascade kills dozens of nodes and the
// repair returns them mid-run; folding them back in at a checkpoint
// boundary must beat limping on at the shrunken width — and make no
// difference when the scenario has no repairs to apply.
func TestGrowBackBeatsShrinkOnly(t *testing.T) {
	sc, err := Builtin("rack-cascade")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, 20220523, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GrowBackWall >= rep.ShrinkOnlyWall {
		t.Fatalf("grow-back wall %v not below shrink-only %v",
			rep.GrowBackWall, rep.ShrinkOnlyWall)
	}

	noRepair := *sc
	noRepair.Repairs = nil
	rep2, err := Run(&noRepair, 20220523, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.GrowBackWall != rep2.ShrinkOnlyWall {
		t.Fatalf("with no repairs the policies must coincide: %v vs %v",
			rep2.GrowBackWall, rep2.ShrinkOnlyWall)
	}
}

// TestFailoverBeatsWaitOut: a six-hour facility outage mid-campaign.
func TestFailoverBeatsWaitOut(t *testing.T) {
	sc, err := Builtin("facility-outage")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, 20220523, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failover.Makespan >= rep.WaitOut.Makespan {
		t.Fatalf("failover makespan %v not below wait-out %v",
			rep.Failover.Makespan, rep.WaitOut.Makespan)
	}
	if rep.WaitOut.WaitTime == 0 {
		t.Fatal("the wait-out comparator never waited — the outage did not bite")
	}
}

// TestCompileSeedSensitivity: different seeds move the correlated events;
// the scenario is a distribution, not one trace.
func TestCompileSeedSensitivity(t *testing.T) {
	sc, err := Builtin("perfect-storm")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	if sameSchedule(a, b) == nil {
		t.Fatal("seeds 1 and 2 compiled to the identical schedule")
	}
}

func TestScaledGuards(t *testing.T) {
	sc := MustParse("name x\nnodes 8\nhorizon 1h\ncascade at 1m count 2 spacing 1s spread 4")
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0.5) accepted")
		}
	}()
	sc.Scaled(0.5)
}

func TestScaledIntensifies(t *testing.T) {
	sc := MustParse(`
name x
nodes 64
horizon 2h
cascade at 10m count 4 spacing 30s spread 8
storm at 30m for 10m count 4 factor 2
brownout from 50m to 70m factor 0.5
flap from 80m to 90m period 1m duty 0.5 factor 0.5
`)
	h := sc.Scaled(2)
	if h.Cascades[0].Count != 8 || h.Storms[0].Count != 8 {
		t.Fatalf("populations not doubled: %+v %+v", h.Cascades, h.Storms)
	}
	if h.Storms[0].Factor != 3 || h.Brownouts[0].Factor != 0.25 || h.Flaps[0].Factor != 0.25 {
		t.Fatalf("severities not deepened: %+v %+v %+v", h.Storms, h.Brownouts, h.Flaps)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("scaled scenario invalid: %v", err)
	}
}

// TestCompiledLookupsMatchFullScan: on every builtin scenario's compiled
// schedule (straggler storms and link flaps included) the trace's
// lookups return what a scan of every event from the first returns, at
// each event's onset and end and halfway between consecutive ones.
func TestCompiledLookupsMatchFullScan(t *testing.T) {
	scan := func(tr *faults.Trace, kind faults.Kind, at units.Seconds) float64 {
		worst := 1.0
		for _, e := range tr.Events {
			if e.Time > at {
				break
			}
			if e.Kind == kind && at < e.Time+e.Duration &&
				(kind == faults.Straggler && e.Factor > worst || kind == faults.LinkDegrade && e.Factor < worst) {
				worst = e.Factor
			}
		}
		return worst
	}
	for _, name := range Names() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			s, err := sc.Compile(seed)
			if err != nil {
				t.Fatal(err)
			}
			var probes []units.Seconds
			for _, e := range s.Trace.Events {
				for _, m := range []units.Seconds{e.Time, e.Time + e.Duration} {
					if n := len(probes); n > 0 {
						probes = append(probes, (probes[n-1]+m)/2)
					}
					probes = append(probes, m)
				}
			}
			for _, at := range probes {
				if got, want := s.Trace.SlowdownAt(at), scan(s.Trace, faults.Straggler, at); got != want {
					t.Fatalf("%s seed %d: SlowdownAt(%v) = %v, full scan %v", name, seed, at, got, want)
				}
				if got, want := s.LinkFactorAt(at), scan(s.Trace, faults.LinkDegrade, at); got != want {
					t.Fatalf("%s seed %d: LinkFactorAt(%v) = %v, full scan %v", name, seed, at, got, want)
				}
			}
		}
	}
}
