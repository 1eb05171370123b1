package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"summitscale/internal/platform"
)

// The platform refactor must not perturb the paper-baseline reports by a
// single byte: the golden files under testdata/ were captured from the
// pre-refactor Summit-only constructors.

// withoutTempDir points TMPDIR at a directory that does not exist, so
// any host temp file the experiments try to make fails their report.
func withoutTempDir(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "absent"))
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return string(b)
}

// TestSysreqGoldenSummit reproduces `summit-sysreq -platform summit`
// byte-for-byte: IO1 and C1 each followed by a blank line, then R1.
func TestSysreqGoldenSummit(t *testing.T) {
	exps := SysreqExperimentsOn(platform.Summit())
	var b strings.Builder
	for i, e := range exps {
		b.WriteString(RenderResult(e, e.Run()))
		if i < 2 {
			b.WriteString("\n")
		}
	}
	if got, want := b.String(), readGolden(t, "summit-sysreq.golden"); got != want {
		t.Errorf("summit sysreq report diverged from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScalingGoldenSummit pins the §IV-B scaling reports on the baseline.
func TestScalingGoldenSummit(t *testing.T) {
	exps := ScalingExperimentsOn(platform.Summit())
	for _, e := range exps {
		got := RenderResult(e, e.Run())
		want := readGolden(t, "scaling-"+e.ID+".golden")
		if got != want {
			t.Errorf("%s report diverged from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s", e.ID, got, want)
		}
	}
}

// TestResilienceGoldenSummit pins the failure-model study on the
// baseline: the checkpoint-interval sweep and the fault-injected campaign
// are seeded, so their reports must be byte-identical across reruns, and
// the measured sweep optimum must sit within the Young/Daly tolerance
// (the in-report metric carries Tol 0.15 and Passed checks it). The
// simulated checkpoint tiers live in memory, so the reports hold without
// a host temp directory.
func TestResilienceGoldenSummit(t *testing.T) {
	withoutTempDir(t)
	for _, e := range ResilienceExperimentsOn(platform.Summit()) {
		first := RenderResult(e, e.Run())
		if again := RenderResult(e, e.Run()); again != first {
			t.Errorf("%s report not reproducible across reruns at fixed seed", e.ID)
		}
		want := readGolden(t, "resilience-"+e.ID+".golden")
		if first != want {
			t.Errorf("%s report diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", e.ID, first, want)
		}
	}
}

// TestChaosGoldenSummit pins the adversarial-scenario study: RS3 and RS4
// are fully seeded, so their reports must be byte-identical across reruns
// and match the captured Summit goldens — without a host temp directory,
// like the resilience study.
func TestChaosGoldenSummit(t *testing.T) {
	withoutTempDir(t)
	for _, e := range ChaosExperimentsOn(platform.Summit()) {
		first := RenderResult(e, e.Run())
		if again := RenderResult(e, e.Run()); again != first {
			t.Errorf("%s report not reproducible across reruns at fixed seed", e.ID)
		}
		want := readGolden(t, "chaos-"+e.ID+".golden")
		if first != want {
			t.Errorf("%s report diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", e.ID, first, want)
		}
	}
}

// TestServeGoldenSummit pins the serving study: S6 is fully seeded
// (model weights, user population, and chaos schedule all derive from
// serveSeed), so its report must be byte-identical across reruns and
// match the captured Summit golden.
func TestServeGoldenSummit(t *testing.T) {
	for _, e := range ServeExperimentsOn(platform.Summit()) {
		first := RenderResult(e, e.Run())
		if again := RenderResult(e, e.Run()); again != first {
			t.Errorf("%s report not reproducible across reruns at fixed seed", e.ID)
		}
		want := readGolden(t, "serve-"+e.ID+".golden")
		if first != want {
			t.Errorf("%s report diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", e.ID, first, want)
		}
	}
}

// TestMLPerfGoldenSummit pins the benchmark-campaign study: S7 is fully
// seeded (workload suite, campaign layout, proxy training, and storm
// schedule are pure functions of the platform and mlperfSeed), so its
// report must be byte-identical across reruns — at any evaluator width —
// and match the captured Summit golden.
func TestMLPerfGoldenSummit(t *testing.T) {
	for _, e := range MLPerfExperimentsOn(platform.Summit()) {
		first := RenderResult(e, e.Run())
		if again := RenderResult(e, e.Run()); again != first {
			t.Errorf("%s report not reproducible across reruns at fixed seed", e.ID)
		}
		want := readGolden(t, "mlperf-"+e.ID+".golden")
		if first != want {
			t.Errorf("%s report diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", e.ID, first, want)
		}
	}
}

// TestReportsFiniteOnAllPlatforms runs every machine-aware experiment on
// every registered machine and rejects NaN/Inf metrics or empty reports.
// It also runs each platform's suite through the DAG engine, the path
// `summit-repro -platform` takes: every section must equal the same
// experiment run alone.
func TestReportsFiniteOnAllPlatforms(t *testing.T) {
	for _, name := range platform.Names() {
		p, err := platform.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		exps := platformSuite(p)
		if len(exps) != 15 {
			t.Fatalf("%s: want 15 experiments, got %d", name, len(exps))
		}
		viaEngine := NewEngine().Run(p, exps, 4, nil)
		for i, e := range exps {
			res := e.Run()
			if len(res.Metrics) == 0 {
				t.Errorf("%s/%s: no metrics", name, e.ID)
			}
			for _, m := range res.Metrics {
				if math.IsNaN(m.Measured) || math.IsInf(m.Measured, 0) {
					t.Errorf("%s/%s: metric %q is not finite: %v", name, e.ID, m.Name, m.Measured)
				}
			}
			if strings.TrimSpace(res.Detail) == "" {
				t.Errorf("%s/%s: empty detail", name, e.ID)
			}
			out := RenderResult(e, res)
			if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
				t.Errorf("%s/%s: rendered report contains NaN/Inf:\n%s", name, e.ID, out)
			}
			if got := RenderResult(e, viaEngine[i]); got != out {
				t.Errorf("%s/%s: engine section differs from the experiment run alone:\n--- engine ---\n%s\n--- alone ---\n%s",
					name, e.ID, got, out)
			}
		}
	}
}

// TestFrontierCrossoverDiffers checks the acceptance criterion that the
// replayed communication analysis is actually sensitive to the machine:
// the ring/recursive-doubling crossover moves with the fabric parameters.
func TestFrontierCrossoverDiffers(t *testing.T) {
	summit := platform.Summit().Fabric()
	frontier := platform.MustLookup("frontier").Fabric()
	cs := summit.RingTreeCrossover(4096)
	cf := frontier.RingTreeCrossover(4096)
	if cs == cf {
		t.Errorf("crossover identical on summit and frontier (%v); platform parameters not threaded through", cs)
	}
}
