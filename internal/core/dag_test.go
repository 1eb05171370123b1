package core

import (
	"strings"
	"testing"

	"summitscale/internal/obs"
	"summitscale/internal/platform"
)

// platformSuite is the machine-aware study set replayed on every
// registered platform: sysreq, scaling, resilience, chaos, serving and
// benchmark campaigns.
func platformSuite(p platform.Platform) []Experiment {
	exps := append(SysreqExperimentsOn(p), ScalingExperimentsOn(p)...)
	exps = append(exps, ResilienceExperimentsOn(p)...)
	exps = append(exps, ChaosExperimentsOn(p)...)
	exps = append(exps, ServeExperimentsOn(p)...)
	return append(exps, MLPerfExperimentsOn(p)...)
}

// TestDAGRegistryGraphValid guards the dependency declarations of the
// Summit registry and of every platform's suite: every Needs key must
// name a sub-result node the engine builds for that platform (a typo
// would otherwise surface as a RunDAG panic in `summit-repro -platform`).
func TestDAGRegistryGraphValid(t *testing.T) {
	check := func(p platform.Platform, exps []Experiment) {
		known := map[string]bool{}
		for _, sn := range subResultNodes(p) {
			if known[sn.key] {
				t.Errorf("%s: duplicate sub-result node %q", p.Name, sn.key)
			}
			known[sn.key] = true
		}
		for _, sn := range subResultNodes(p) {
			for _, d := range sn.deps {
				if !known[d] {
					t.Errorf("%s: sub-result %s depends on unknown sub-result %q", p.Name, sn.key, d)
				}
			}
		}
		for _, e := range exps {
			for _, k := range e.Needs {
				if !known[k] {
					t.Errorf("%s: experiment %s needs unknown sub-result %q", p.Name, e.ID, k)
				}
			}
		}
	}
	check(platform.Summit(), Experiments())
	for _, name := range platform.Names() {
		p := platform.MustLookup(name)
		check(p, platformSuite(p))
	}
}

// TestRunAllDAGMatchesFlat is the engine's byte-identity contract: the
// DAG scheduler with memoized sub-results must render exactly the report
// of every experiment run alone, in registry order, on a cold engine at
// -j 1, 4 and 16 and again on a warm one.
func TestRunAllDAGMatchesFlat(t *testing.T) {
	var b strings.Builder
	flatPass := true
	for _, e := range Experiments() {
		r := e.Run()
		b.WriteString(RenderResult(e, r) + "\n")
		flatPass = flatPass && r.Pass()
	}
	flat := b.String()
	var en *Engine
	for _, workers := range []int{1, 4, 16} {
		en = NewEngine()
		got, pass := en.RunAllParallel(workers)
		if pass != flatPass {
			t.Errorf("-j %d: pass %v vs flat %v", workers, pass, flatPass)
		}
		if got != flat {
			t.Fatalf("-j %d: DAG report diverged from flat path (%d vs %d bytes)",
				workers, len(got), len(flat))
		}
	}
	if warm, _ := en.RunAllParallel(4); warm != flat {
		t.Fatal("warm-cache DAG report diverged from flat path")
	}
}

// TestRunAllDAGShuffledRegistryOrder runs the engine over a permuted
// experiment list: each section must be byte-identical to the
// experiment's flat render, independent of declaration order.
func TestRunAllDAGShuffledRegistryOrder(t *testing.T) {
	exps := Experiments()
	shuffled := make([]Experiment, len(exps))
	// Fixed permutation: reversed, which moves every consumer ahead of
	// the order its sub-results were declared in.
	for i, e := range exps {
		shuffled[len(exps)-1-i] = e
	}
	var want strings.Builder
	for _, e := range shuffled {
		want.WriteString(RenderResult(e, e.Run()) + "\n")
	}
	got, _ := Report(shuffled, NewEngine().Run(platform.Summit(), shuffled, 4, nil))
	if got != want.String() {
		t.Fatal("shuffled registry order changed the DAG engine's per-experiment output")
	}
}

// TestEngineCacheMemoizes pins the memoization contract: one run fills
// the keyed cache (shared sub-results and per-experiment results), a
// second run adds nothing and returns identical bytes.
func TestEngineCacheMemoizes(t *testing.T) {
	en := NewEngine()
	if en.Cache().Len() != 0 {
		t.Fatal("fresh engine cache not empty")
	}
	first, _ := en.RunAllParallel(2)
	filled := en.Cache().Len()
	p := platform.Summit()
	for _, key := range []string{
		keyPortfolio,
		keyScalingStudies(p),
		keyChaosReport(p, "rack-cascade"),
		keyServeFleet,
		keyServeReplay(p, replayStorm),
		"result/" + p.Name + "/RS1",
		"result/" + p.Name + "/W1",
	} {
		if !en.Cache().has(key) {
			t.Errorf("cache missing %q after a full run", key)
		}
	}
	again, _ := en.RunAllParallel(2)
	if again != first {
		t.Error("warm run diverged from cold run")
	}
	if got := en.Cache().Len(); got != filled {
		t.Errorf("warm run grew the cache from %d to %d entries", filled, got)
	}
}

// TestEnginePullsInSubResultDeps runs an experiment that needs only one
// S6 replay: the engine must schedule the fleet that replay depends on
// too, before the replay, and memoize both.
func TestEnginePullsInSubResultDeps(t *testing.T) {
	p := platform.Summit()
	replay := keyServeReplay(p, replayUnbatched)
	en := NewEngine()
	var sawFleet bool
	exp := Experiment{ID: "dep-probe", Needs: []string{replay}, Body: func(c *Cache, _ *obs.Observer) Result {
		sawFleet = c.has(keyServeFleet) && c.has(replay)
		return Result{}
	}}
	en.Run(p, []Experiment{exp}, 2, nil)
	if !sawFleet {
		t.Fatal("the experiment ran before the fleet and replay were memoized")
	}
	if en.Cache().has(keyServeReplay(p, replayStorm)) {
		t.Error("the engine ran a replay no experiment needs")
	}
}

// TestObservedChaosGaugesIndependentOfOrder is the regression test for
// RS3 and RS4 sharing one observer: both replay chaos scenarios observed,
// and gauges are last-writer-wins, so the metrics must not depend on
// which experiment runs last.
func TestObservedChaosGaugesIndependentOfOrder(t *testing.T) {
	rs3, _ := ByID("RS3")
	rs4, _ := ByID("RS4")
	metrics := func(exps ...Experiment) string {
		ob := obs.New()
		NewEngine().Run(platform.Summit(), exps, 1, ob)
		return ob.Metrics.Render()
	}
	if a, b := metrics(rs3, rs4), metrics(rs4, rs3); a != b {
		t.Errorf("metrics depend on experiment order:\n--- RS3, RS4 ---\n%s\n--- RS4, RS3 ---\n%s", a, b)
	}
}

// TestEngineKeysResultsByPlatform runs one engine on Summit and then on
// Frontier. Other machines reuse the Summit experiment IDs, so Frontier
// must get its own results, not Summit's memoized ones.
func TestEngineKeysResultsByPlatform(t *testing.T) {
	frontier := platform.MustLookup("frontier")
	exps := platformSuite(frontier)
	want, _ := Report(exps, NewEngine().Run(frontier, exps, 4, nil))

	en := NewEngine()
	summit := platform.Summit()
	en.Run(summit, platformSuite(summit), 4, nil)
	if got, _ := Report(exps, en.Run(frontier, exps, 4, nil)); got != want {
		t.Fatal("an engine warmed on Summit handed Frontier different results than a fresh engine")
	}
}

// TestChaosThroughDAGSmoke is the chaos-engine smoke check of the DAG
// refactor: the RS3/RS4 sections produced by the scheduler — with RS4
// resolving its scenarios from RS3's memoized runs — must contain the
// captured Summit goldens byte-for-byte.
func TestChaosThroughDAGSmoke(t *testing.T) {
	report, _ := NewEngine().RunAllParallel(4)
	for _, name := range []string{"chaos-RS3.golden", "chaos-RS4.golden"} {
		want := readGolden(t, name)
		if !strings.Contains(report, want) {
			t.Errorf("DAG report does not contain the %s bytes", name)
		}
	}
}

// TestObservedRunEmitsDAGSpans checks the scheduler's own trace track:
// observed runs record one deterministic span per experiment node.
func TestObservedRunEmitsDAGSpans(t *testing.T) {
	ob := obs.New()
	exps := Experiments()
	if _, ok := Report(exps, NewEngine().Run(platform.Summit(), exps, 2, ob)); !ok {
		t.Fatal("observed run failed")
	}
	trace := string(ob.Trace.ChromeTrace())
	for _, frag := range []string{`"dag"`, "exp/RS3", "exp/F1"} {
		if !strings.Contains(trace, frag) {
			t.Errorf("trace missing %q", frag)
		}
	}
}
