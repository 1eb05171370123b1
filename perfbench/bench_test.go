package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"summitscale/internal/checkpoint"
	"summitscale/internal/nn"
	"summitscale/internal/stats"
)

func TestTailP90NeedsHundredSamples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := tailP90(xs); ok {
		t.Fatal("p90 reported from 99 samples")
	}
	xs = append(xs, 100)
	p90, ok := tailP90(xs)
	if !ok || math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90.1, true", p90, ok)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "step", start: d(0), end: d(100), parent: -1},
		// Two overlapping children cover [10, 50); the third is clipped
		// to the parent's end at 100.
		{name: "a", start: d(10), end: d(30), parent: 0},
		{name: "b", start: d(20), end: d(50), parent: 0},
		{name: "c", start: d(90), end: d(120), parent: 0},
		// A grandchild is covered by its parent, not by "step".
		{name: "g", start: d(12), end: d(18), parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{d(50), d(14), d(30), d(30), d(6)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
	rows := layerTable(spans)
	if r := layer(rows, "step"); r.count != 1 || r.total != d(100) || r.self != d(50) {
		t.Errorf("step row = %+v", r)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x"))
	tr := newTracer()
	tr.end(tr.begin("off"))
	tr.on = true
	outer := tr.begin("outer")
	tr.end(tr.begin("inner"))
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].parent != 0 || tr.spans[0].parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestItemsPerSecond(t *testing.T) {
	if got := itemsPerSecond(100, 2*time.Second); got != 50 {
		t.Fatalf("itemsPerSecond = %v, want 50", got)
	}
	// Ops of 1, 1, 1, 2 and 1 s with 10 items each: the median op runs
	// at 10 items/s, whatever the slow op's share of the wall time.
	if got := medianOpRate(10, []float64{1000, 1000, 1000, 2000, 1000}); got != 10 {
		t.Fatalf("medianOpRate = %v, want 10", got)
	}
}

func TestStepGateRejectsNonFiniteLossAndFailedCommit(t *testing.T) {
	for _, c := range []struct {
		loss float64
		err  error
		ok   bool
	}{
		{0.3, nil, true},
		{math.NaN(), nil, false},
		{math.Inf(1), nil, false},
		{0.3, errors.New("drain failed"), false},
	} {
		if got := stepOK(c.loss, c.err); got != c.ok {
			t.Errorf("stepOK(%v, %v) = %v, want %v", c.loss, c.err, got, c.ok)
		}
	}
}

func TestVerifyCommitCatchesCorruptCopy(t *testing.T) {
	dir := t.TempDir()
	tiers := []checkpoint.TierDir{
		{Name: "nvme", Dir: filepath.Join(dir, "nvme")},
		{Name: "replica", Dir: filepath.Join(dir, "replica")},
		{Name: "gpfs", Dir: filepath.Join(dir, "gpfs")},
	}
	newModel := func(seed uint64) nn.Module { return nn.NewResidualMLP(stats.NewRNG(seed), 4, 8, 2, 1) }
	live := newModel(1)
	if err := seedStore(tiers, live); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.NewStore(tiers, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := verifyCommit(store, live, newModel(2))
	if err != nil {
		t.Fatalf("clean commit: %v", err)
	}
	if size, _ := fileSize(store.VersionPath(0, 1)); n != 3*size {
		t.Errorf("bytes written = %d, want 3 x %d", n, size)
	}
	if _, err := verifyCommit(store, newModel(3), newModel(2)); err == nil {
		t.Error("a commit that differs from the live model passed")
	}
	if err := store.CorruptVersion(2, 1, 0xff); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyCommit(store, live, newModel(2)); err == nil {
		t.Error("a corrupted gpfs copy passed")
	}
}

func TestReproGateRejectsBadReports(t *testing.T) {
	good := []byte("== T1 ==\n" + reproOK + "\n")
	if err := checkReport(child{stdout: good}, nil); err != nil {
		t.Fatalf("first report: %v", err)
	}
	if err := checkReport(child{stdout: good}, good); err != nil {
		t.Fatalf("identical report: %v", err)
	}
	for name, c := range map[string]child{
		"differing report": {stdout: []byte("== T1 (changed) ==\n" + reproOK + "\n")},
		"deviation":        {stdout: []byte("== T1 ==\nsummit-repro: one or more metrics deviate\n")},
		"non-zero exit":    {stdout: good, err: errors.New("exit status 1")},
	} {
		if err := checkReport(c, good); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestMeanRelErr(t *testing.T) {
	report := []byte("  a   paper 10  measured 11  x  relerr  10.0%  [ok]\n" +
		"  b   measured 3 x (informational)\n" +
		"  c   paper 10  measured 10  x  relerr   0.0%  [ok]\n")
	got, err := meanRelErr(report)
	if err != nil || math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("meanRelErr = %v, %v; want 0.05", got, err)
	}
	if _, err := meanRelErr([]byte("no metrics\n")); err == nil {
		t.Fatal("a report without toleranced metrics passed")
	}
}

func TestResultCountsEndOfRunChecks(t *testing.T) {
	o := &outcome{attempted: 10, metrics: map[string]float64{}}
	for _, d := range endToEnd {
		o.metrics[d.name] = 1
	}
	res, err := buildResult(o, false)
	if err != nil || !res.Correct || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("clean result = %+v, %v", res, err)
	}
	o.fail("replicas diverged")
	if res, _ = buildResult(o, false); res.Correct || res.Failed != 1 {
		t.Fatalf("failed check gave %+v", res)
	}
	delete(o.metrics, "setup_s")
	if _, err := buildResult(o, false); err == nil {
		t.Fatal("a missing end-to-end metric passed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// benchmark's declaration at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, defined %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		for i, d := range declared {
			if d.Name != defined[i].name || d.Unit != defined[i].unit {
				t.Errorf("%s %d: declared %s [%s], defined %s [%s]", kind, i, d.Name, d.Unit, defined[i].name, defined[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}
