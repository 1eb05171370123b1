package workflow

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"summitscale/internal/stats"
	"summitscale/internal/surrogate"
)

func TestContextRoundTrip(t *testing.T) {
	c := NewContext()
	c.Set("x", 42)
	if v, ok := c.Get("x"); !ok || v.(int) != 42 {
		t.Fatal("Get failed")
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("ghost artifact")
	}
	if c.MustGet("x").(int) != 42 {
		t.Fatal("MustGet failed")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewContext().MustGet("absent")
}

func TestValidateDetectsCycle(t *testing.T) {
	w := New()
	w.MustAdd(&Task{Name: "a", Deps: []string{"b"}})
	w.MustAdd(&Task{Name: "b", Deps: []string{"a"}})
	if _, err := w.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestValidateDetectsUnknownDep(t *testing.T) {
	w := New()
	w.MustAdd(&Task{Name: "a", Deps: []string{"ghost"}})
	if _, err := w.Validate(); err == nil {
		t.Fatal("unknown dependency accepted")
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	w := New()
	w.MustAdd(&Task{Name: "a"})
	if err := w.Add(&Task{Name: "a"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestRunHonorsDependencies(t *testing.T) {
	w := New()
	var mark atomic.Int64
	var aAt, bAt, cAt int64
	w.MustAdd(&Task{Name: "a", Run: func(*Context) error { aAt = mark.Add(1); return nil }})
	w.MustAdd(&Task{Name: "b", Deps: []string{"a"}, Run: func(*Context) error { bAt = mark.Add(1); return nil }})
	w.MustAdd(&Task{Name: "c", Deps: []string{"b"}, Run: func(*Context) error { cAt = mark.Add(1); return nil }})
	if err := w.Run(NewContext()); err != nil {
		t.Fatal(err)
	}
	if !(aAt < bAt && bAt < cAt) {
		t.Fatalf("order violated: a=%d b=%d c=%d", aAt, bAt, cAt)
	}
}

func TestRunPassesArtifacts(t *testing.T) {
	w := New()
	w.MustAdd(&Task{Name: "produce", Run: func(c *Context) error {
		c.Set("data", []float64{1, 2, 3})
		return nil
	}})
	var got []float64
	w.MustAdd(&Task{Name: "consume", Deps: []string{"produce"}, Run: func(c *Context) error {
		got = c.MustGet("data").([]float64)
		return nil
	}})
	if err := w.Run(NewContext()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("artifact = %v", got)
	}
}

func TestRunReportsTaskError(t *testing.T) {
	w := New()
	boom := errors.New("boom")
	w.MustAdd(&Task{Name: "bad", Run: func(*Context) error { return boom }})
	ran := false
	w.MustAdd(&Task{Name: "dependent", Deps: []string{"bad"}, Run: func(*Context) error {
		ran = true
		return nil
	}})
	err := w.Run(NewContext())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error = %v", err)
	}
	if ran {
		t.Fatal("dependent of failed task ran")
	}
}

func TestRunIndependentTasksConcurrently(t *testing.T) {
	w := New()
	gate := make(chan struct{})
	// Two tasks that can only finish if both are running at once.
	w.MustAdd(&Task{Name: "a", Run: func(*Context) error { gate <- struct{}{}; return nil }})
	w.MustAdd(&Task{Name: "b", Run: func(*Context) error { <-gate; return nil }})
	if err := w.Run(NewContext()); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateSerialChain(t *testing.T) {
	w := New()
	w.MustAdd(&Task{Name: "a", Facility: "summit", Duration: 10})
	w.MustAdd(&Task{Name: "b", Facility: "summit", Duration: 5, Deps: []string{"a"}})
	tl, err := w.Simulate([]Facility{{Name: "summit", Capacity: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 15 {
		t.Fatalf("makespan = %v", tl.Makespan)
	}
	if tl.Start["b"] != 10 || tl.End["b"] != 15 {
		t.Fatalf("b scheduled [%v, %v]", tl.Start["b"], tl.End["b"])
	}
}

func TestSimulateCapacityQueues(t *testing.T) {
	w := New()
	for _, n := range []string{"a", "b", "c"} {
		w.MustAdd(&Task{Name: n, Facility: "gpu", Duration: 10})
	}
	tl, err := w.Simulate([]Facility{{Name: "gpu", Capacity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 30 {
		t.Fatalf("serialized makespan = %v", tl.Makespan)
	}
	tl2, _ := w.Simulate([]Facility{{Name: "gpu", Capacity: 3}})
	if tl2.Makespan != 10 {
		t.Fatalf("parallel makespan = %v", tl2.Makespan)
	}
}

// TestSimulateMultiFacility models the §V-B pattern: simulation at one
// facility, training at another, coupled stages.
func TestSimulateMultiFacility(t *testing.T) {
	w := New()
	w.MustAdd(&Task{Name: "ffea", Facility: "thetagpu", Duration: 100})
	w.MustAdd(&Task{Name: "aamd", Facility: "perlmutter", Duration: 120})
	w.MustAdd(&Task{Name: "cvae-train", Facility: "summit", Duration: 60,
		Deps: []string{"ffea", "aamd"}})
	w.MustAdd(&Task{Name: "gno-couple", Facility: "thetagpu", Duration: 30,
		Deps: []string{"cvae-train"}})
	tl, err := w.Simulate([]Facility{
		{Name: "summit", Capacity: 2}, {Name: "thetagpu", Capacity: 2},
		{Name: "perlmutter", Capacity: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ffea and aamd run in parallel (different facilities): cvae starts at
	// 120, ends 180; gno ends 210.
	if tl.Makespan != 210 {
		t.Fatalf("makespan = %v", tl.Makespan)
	}
	if tl.Start["cvae-train"] != 120 {
		t.Fatalf("cvae start = %v", tl.Start["cvae-train"])
	}
	if u := tl.Utilization["perlmutter"]; math.Abs(u-120.0/210) > 1e-9 {
		t.Fatalf("perlmutter utilization = %v", u)
	}
}

// TestActiveLearnReducesError reproduces the Liu et al. loop in miniature:
// a ridge surrogate of a quadratic reference improves as rounds add data.
func TestActiveLearnReducesError(t *testing.T) {
	rng := stats.NewRNG(2)
	truth := func(x []float64) float64 { return 1 + 2*x[0] + 0.5*x[1] }
	probe := make([][]float64, 50)
	for i := range probe {
		probe[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	hooks := ActiveLearningHooks[[]float64, surrogate.Ridge]{
		Propose: func(_ *surrogate.Ridge, _, count int) [][]float64 {
			out := make([][]float64, count)
			for i := range out {
				out[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			}
			return out
		},
		Reference: func(x []float64) float64 { return truth(x) + rng.NormFloat64()*0.05 },
		Fit: func(xs [][]float64, ys []float64) (*surrogate.Ridge, error) {
			return surrogate.FitRidge(xs, ys, 1e-6)
		},
		Validate: func(m *surrogate.Ridge) float64 {
			var mse float64
			for _, x := range probe {
				d := m.Predict(x) - truth(x)
				mse += d * d
			}
			return mse / float64(len(probe))
		},
	}
	res, err := ActiveLearn(ActiveLearningConfig{Rounds: 6, BatchPerRound: 10}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceCalls != 60 {
		t.Fatalf("reference calls = %d", res.ReferenceCalls)
	}
	first, last := res.ErrorPerRound[0], res.ErrorPerRound[len(res.ErrorPerRound)-1]
	if last >= first {
		t.Fatalf("active learning error %v -> %v", first, last)
	}
	if last > 0.01 {
		t.Fatalf("final surrogate error %v", last)
	}
}

func TestActiveLearnPropagatesFitError(t *testing.T) {
	hooks := ActiveLearningHooks[int, int]{
		Propose:   func(_ *int, _, count int) []int { return make([]int, count) },
		Reference: func(int) float64 { return 0 },
		Fit:       func([]int, []float64) (*int, error) { return nil, errors.New("nope") },
		Validate:  func(*int) float64 { return 0 },
	}
	if _, err := ActiveLearn(ActiveLearningConfig{Rounds: 1, BatchPerRound: 1}, hooks); err == nil {
		t.Fatal("fit error swallowed")
	}
}
