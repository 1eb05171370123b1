package workflow

import (
	"errors"
	"strings"
	"testing"

	"summitscale/internal/faults"
	"summitscale/internal/machine"
	"summitscale/internal/units"
)

func TestRetrySucceedsEventually(t *testing.T) {
	attempts := 0
	body := func(*Context) error {
		attempts++
		if attempts < 3 {
			return errors.New("transient")
		}
		return nil
	}
	p := RetryPolicy{MaxAttempts: 5, Stats: &RetryStats{}}
	if err := p.Wrap("t", body)(NewContext()); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d", attempts)
	}
	if s := p.Stats.Snapshot(); s.Attempts != 3 || s.Retries != 2 || s.Succeeded != 1 {
		t.Fatalf("retry stats = %v", s)
	}
}

func TestRetryExhaustion(t *testing.T) {
	boom := errors.New("permanent")
	p := RetryPolicy{MaxAttempts: 3}
	err := p.Wrap("t", func(*Context) error { return boom })(NewContext())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryPolicyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RetryPolicy{MaxAttempts: 0}.Wrap("t", nil)
}

// TestRetryStatsExposed: the policy reports attempt counts and backoff
// totals instead of swallowing them.
func TestRetryStatsExposed(t *testing.T) {
	st := &RetryStats{}
	p := RetryPolicy{MaxAttempts: 4, Backoff: 10, Stats: st}

	attempts := 0
	flaky := func(*Context) error {
		attempts++
		if attempts < 3 {
			return errors.New("transient")
		}
		return nil
	}
	if err := p.Wrap("flaky", flaky)(NewContext()); err != nil {
		t.Fatal(err)
	}
	if err := p.Wrap("dead", func(*Context) error { return errors.New("permanent") })(NewContext()); err == nil {
		t.Fatal("permanent failure succeeded")
	}

	s := st.Snapshot()
	// flaky: 3 attempts, 2 retries, backoff 10+20; dead: 4 attempts,
	// 3 retries, backoff 10+20+40.
	if s.Attempts != 7 || s.Retries != 5 || s.Succeeded != 1 || s.Exhausted != 1 {
		t.Fatalf("snapshot %v", s)
	}
	if s.BackoffTotal != 100 {
		t.Fatalf("backoff total %v, want 100 (exponential: 10+20 and 10+20+40)", s.BackoffTotal)
	}
	if !strings.Contains(s.String(), "attempts=7") {
		t.Fatalf("render %q", s.String())
	}
}

// faultyTrace generates a failure trace over nodes whose per-node MTBF
// is mtbf, so trace-driven campaigns meet faults within a few windows.
func faultyTrace(t *testing.T, seed uint64, nodes int, mtbf, horizon units.Seconds) *faults.Trace {
	t.Helper()
	params := faults.ParamsFor(machine.Summit(), nodes)
	params.NodeMTBF = mtbf
	tr := params.Generate(seed, horizon)
	if tr.Count(faults.NodeFailure) == 0 {
		t.Fatal("trace has no failures; test proves nothing")
	}
	return tr
}

// TestRetryStatsConcurrentCampaign: stats stay consistent when the DAG
// engine runs wrapped tasks from many goroutines. The trace injector is
// shared directly across all 16 independent tasks.
func TestRetryStatsConcurrentCampaign(t *testing.T) {
	ti := NewTraceInjector(faultyTrace(t, 11, 16, 4*units.Hour, 48*units.Hour), units.Hour)
	st := &RetryStats{}
	p := RetryPolicy{MaxAttempts: 20, Backoff: 1, Stats: st}
	w := New()
	for i := 0; i < 16; i++ {
		name := string(rune('a' + i))
		w.MustAdd(&Task{Name: name, Run: p.Wrap(name, ti.Wrap(name, nil))})
	}
	if err := w.Run(NewContext()); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if s.Succeeded != 16 {
		t.Fatalf("succeeded %d of 16: %v", s.Succeeded, s)
	}
	if s.Attempts != 16+s.Retries {
		t.Fatalf("attempt accounting inconsistent: %v", s)
	}
	if ti.Injected == 0 || ti.Injected != s.Retries {
		t.Fatalf("injected %d faults but policy recorded %d retries", ti.Injected, s.Retries)
	}
}

// TestTraceInjectorDeterministic: the same trace produces the same fault
// schedule, and tasks pinned to failing nodes fail in their windows.
func TestTraceInjectorDeterministic(t *testing.T) {
	tr := faultyTrace(t, 21, 8, 16*units.Hour, 24*units.Hour) // 2h system MTBF on 8 nodes
	run := func() (int, []error) {
		ti := NewTraceInjector(tr, 30*units.Minute)
		var errs []error
		for i := 0; i < 8; i++ {
			body := ti.Wrap(string(rune('a'+i)), nil)
			errs = append(errs, body(NewContext()))
		}
		return ti.Injected, errs
	}
	inj1, errs1 := run()
	inj2, errs2 := run()
	if inj1 != inj2 {
		t.Fatalf("injector not deterministic: %d vs %d", inj1, inj2)
	}
	for i := range errs1 {
		if (errs1[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("task %d fault schedule differs between runs", i)
		}
	}
}

// TestTraceInjectorRetriesEventuallyClear: a failed attempt occupies its
// window; later attempts run in later windows where the node (usually)
// works, so retries drain trace-driven faults.
func TestTraceInjectorRetriesEventuallyClear(t *testing.T) {
	ti := NewTraceInjector(faultyTrace(t, 5, 4, 8*units.Hour, 12*units.Hour), 1*units.Hour)
	st := &RetryStats{}
	p := RetryPolicy{MaxAttempts: 50, Backoff: 30, Stats: st}
	w := New()
	for _, name := range []string{"stage", "train", "analyze", "publish"} {
		w.MustAdd(&Task{Name: name, Run: p.Wrap(name, ti.Wrap(name, nil))})
	}
	if err := w.Run(NewContext()); err != nil {
		t.Fatalf("campaign failed despite retries: %v", err)
	}
	s := st.Snapshot()
	if s.Succeeded != 4 {
		t.Fatalf("snapshot %v", s)
	}
	if ti.Injected != s.Retries {
		t.Fatalf("injected %d faults but policy recorded %d retries", ti.Injected, s.Retries)
	}
}

// TestCampaignSurvivesFaultsWithRetries is the §V resilience scenario: a
// fault-injected multi-stage campaign completes when every task is
// wrapped in retries.
func TestCampaignSurvivesFaultsWithRetries(t *testing.T) {
	inj := NewTraceInjector(faultyTrace(t, 7, 3, 2*units.Hour, 48*units.Hour), units.Hour)
	retry := RetryPolicy{MaxAttempts: 10}
	w := New()
	var completed []string
	mark := func(name string) func(*Context) error {
		return func(c *Context) error {
			c.Set(name, true)
			completed = append(completed, name)
			return nil
		}
	}
	w.MustAdd(&Task{Name: "simulate", Run: retry.Wrap("simulate", inj.Wrap("simulate", mark("simulate")))})
	w.MustAdd(&Task{Name: "train", Deps: []string{"simulate"},
		Run: retry.Wrap("train", inj.Wrap("train", mark("train")))})
	w.MustAdd(&Task{Name: "steer", Deps: []string{"train"},
		Run: retry.Wrap("steer", inj.Wrap("steer", mark("steer")))})
	if err := w.Run(NewContext()); err != nil {
		t.Fatalf("campaign failed despite retries: %v", err)
	}
	if len(completed) != 3 {
		t.Fatalf("completed = %v", completed)
	}
	if inj.Injected == 0 {
		t.Fatal("no faults were injected; the test proves nothing")
	}
}

func TestCampaignFailsWithoutRetries(t *testing.T) {
	// Each task's only attempt spans a day on a node that fails every two
	// hours on average, so the unprotected campaign fails; assert it
	// reports the failure cleanly.
	inj := NewTraceInjector(faultyTrace(t, 3, 3, 2*units.Hour, 48*units.Hour), 24*units.Hour)
	w := New()
	w.MustAdd(&Task{Name: "a", Run: inj.Wrap("a", nil)})
	w.MustAdd(&Task{Name: "b", Deps: []string{"a"}, Run: inj.Wrap("b", nil)})
	w.MustAdd(&Task{Name: "c", Deps: []string{"b"}, Run: inj.Wrap("c", nil)})
	err := w.Run(NewContext())
	if err == nil || inj.Injected != 1 || !strings.Contains(err.Error(), "node") {
		t.Fatalf("unprotected campaign: err %v after %d injected faults, want one node failure", err, inj.Injected)
	}
}
