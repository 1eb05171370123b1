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
