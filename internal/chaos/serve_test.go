package chaos

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"summitscale/internal/obs"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
	"summitscale/internal/units"
)

// stream generates spec's request stream at seed over models.
func stream(t *testing.T, spec serve.TrafficSpec, seed uint64, models []serve.Model) []serve.Request {
	t.Helper()
	reqs, err := spec.Generate(seed, models)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestRunServeServingStorm pins the shed-load policy's value under the
// serving reference scenario: partial capacity loss (cascade) plus a
// link-degrade window over the evening burst. With shedding on, every
// Interactive request that reaches an admitted queue is served and tail
// latency stays below the no-policy run; the cost is refused Bulk work.
func TestRunServeServingStorm(t *testing.T) {
	p := platform.MustLookup("summit")
	models := serve.DefaultModels(7)
	spec := serve.DefaultTraffic()
	rep, err := RunServe(p, ServingStorm(), 42, models, stream(t, spec, 42, models), spec.Horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fails < 3 {
		t.Errorf("serving-storm replayed %d replica losses, want >= 3 (cascade)", rep.Fails)
	}
	if rep.Repairs < 3 {
		t.Errorf("serving-storm replayed %d repairs, want >= 3", rep.Repairs)
	}
	shed := 0
	for _, m := range rep.Shed.Models {
		shed += m.Shed
	}
	if shed == 0 {
		t.Fatal("shed policy never engaged; the scenario no longer stresses capacity")
	}
	interOn, interOff := 0, 0
	for _, r := range rep.Shed.Responses {
		if r.Tier == serve.Interactive {
			interOn++
		}
	}
	for _, r := range rep.NoShed.Responses {
		if r.Tier == serve.Interactive {
			interOff++
		}
	}
	if interOn <= interOff {
		t.Errorf("shedding did not buy interactive availability: %d <= %d", interOn, interOff)
	}
	if rep.Shed.InteractiveP99 >= rep.NoShed.InteractiveP99 {
		t.Errorf("shedding did not bound interactive p99: %v >= %v",
			rep.Shed.InteractiveP99, rep.NoShed.InteractiveP99)
	}
}

// TestRunServeDeterministic requires the chaos-serving comparison to be a
// pure function of (platform, scenario, seed, stream), including through
// the observer path.
func TestRunServeDeterministic(t *testing.T) {
	p := platform.MustLookup("summit")
	models := serve.DefaultModels(7)
	spec := serve.DefaultTraffic()
	sc, err := Builtin("link-flap")
	if err != nil {
		t.Fatal(err)
	}
	reqs := stream(t, spec, 7, models)
	o1, o2 := obs.New(), obs.New()
	a, err := RunServe(p, sc, 7, models, reqs, spec.Horizon, o1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServe(p, sc, 7, models, reqs, spec.Horizon, o2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("identical chaos serving runs rendered differently")
	}
	if string(o1.Trace.ChromeTrace()) != string(o2.Trace.ChromeTrace()) {
		t.Fatal("identical chaos serving runs traced differently")
	}
	if !strings.Contains(a.Render(), "link-flap") {
		t.Errorf("render missing scenario name:\n%s", a.Render())
	}
}

// TestRunServeRejectsBadInputs covers the error paths.
func TestRunServeRejectsBadInputs(t *testing.T) {
	p := platform.MustLookup("summit")
	models := serve.DefaultModels(7)
	sc := ServingStorm()
	spec := serve.DefaultTraffic()
	reqs := stream(t, spec, 1, models)
	if _, err := RunServe(p, sc, 1, models, reqs, 0, nil); err == nil {
		t.Error("zero traffic horizon accepted")
	}
	bad := *sc
	bad.Horizon = 0
	if _, err := RunServe(p, &bad, 1, models, reqs, spec.Horizon, nil); err == nil {
		t.Error("zero scenario horizon accepted")
	}
}

// TestRunServeLeavesStreamUnchanged: the storm replay only reads the
// caller's request stream, so concurrent replays can share one — as S6's
// replays share the fleet's — and each renders the same report.
func TestRunServeLeavesStreamUnchanged(t *testing.T) {
	p := platform.MustLookup("summit")
	models := serve.DefaultModels(7)
	spec := serve.DefaultTraffic()
	spec.Horizon = units.Minute / 4
	reqs := stream(t, spec, 42, models)
	want := make([]serve.Request, len(reqs))
	for i, r := range reqs {
		r.Features = slices.Clone(r.Features)
		want[i] = r
	}
	renders := make([]string, 3)
	errs := make([]error, len(renders))
	var wg sync.WaitGroup
	for i := range renders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := RunServe(p, ServingStorm(), 42, models, reqs, spec.Horizon, nil)
			if err != nil {
				errs[i] = err
				return
			}
			renders[i] = rep.Render()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if renders[1] != renders[0] || renders[2] != renders[0] {
		t.Errorf("concurrent replays of one stream rendered differently:\n%s\n%s\n%s", renders[0], renders[1], renders[2])
	}
	if !reflect.DeepEqual(reqs, want) {
		t.Error("RunServe modified the caller's request stream")
	}
}
