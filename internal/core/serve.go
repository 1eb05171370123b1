package core

import (
	"fmt"
	"strings"

	"summitscale/internal/chaos"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
	"summitscale/internal/units"
)

// The serving study: training campaigns produce surrogates, and the
// paper's workflows (alloy design, binding-affinity scoring) only pay off
// when those surrogates answer simulation queries at interactive rates
// for large user populations. S6 reproduces the serving argument end to
// end on the simulated clock: dynamic micro-batching amortizes dispatch
// overhead (the roofline-priced analogue of Brewer et al.'s batching
// result), bounded admission queues convert overload into typed
// rejections instead of unbounded tails, and a shed-load policy keeps
// Interactive latency bounded through partial capacity loss.

// serveSeed roots the serving study: the model fleet's weights, the
// synthetic user population, and the chaos schedule all derive from it.
const serveSeed = 42

// serveExperiments returns the serving study on the paper baseline.
func serveExperiments() []Experiment {
	return ServeExperimentsOn(platform.Summit())
}

// ServeExperimentsOn returns the serving experiments on the given
// platform: S6, the micro-batching and degradation study.
func ServeExperimentsOn(p platform.Platform) []Experiment {
	return []Experiment{serveExperiment(p)}
}

// serveFleet is S6's platform-free input: the model fleet and the seeded
// request stream that every replay serves.
type serveFleet struct {
	models []serve.Model
	spec   serve.TrafficSpec
	reqs   []serve.Request
	err    error
}

func newServeFleet() serveFleet {
	models := serve.DefaultModels(serveSeed)
	spec := serve.DefaultTraffic()
	reqs, err := spec.Generate(serveSeed, models)
	return serveFleet{models: models, spec: spec, reqs: reqs, err: err}
}

// serveReplay is what S6 reads of one replay: its rendered block and the
// scalars behind its metrics. The cache keeps these rather than whole
// reports, whose per-request responses S6 never reads again.
type serveReplay struct {
	render     string
	rejected   int
	meanBatch  float64
	throughput float64
	interP99   units.Seconds
	// Serving-storm replay only: interactive requests served and shed
	// with the shed policy on, and the no-shed run's interactive p99.
	interServed, interShed int
	noShedP99              units.Seconds
	err                    error
}

// S6's three replays of the fleet, each a sub-result node of its own
// per platform (see dag.go), listed longest first.
const (
	replayStorm     = "storm"
	replayUnbatched = "unbatched"
	replayBatched   = "batched"
)

var serveReplayKinds = []string{replayStorm, replayUnbatched, replayBatched}

// runServeReplay serves the fleet's request stream on p one of three
// ways: micro-batched (recording into ob, when non-nil), unbatched at the
// same capacity, or micro-batched under the serving-storm chaos scenario
// with the shed policy on and off.
func runServeReplay(kind string, p platform.Platform, f serveFleet, ob *obs.Observer) serveReplay {
	if f.err != nil {
		return serveReplay{err: f.err}
	}
	cfg := serve.Config{Platform: p, Models: f.models, Horizon: f.spec.Horizon}
	switch kind {
	case replayBatched:
		cfg.Obs = ob
	case replayUnbatched:
		cfg.Batch = serve.BatchConfig{MaxBatch: 1, MaxDelay: 0}
		cfg.Admission = serve.DefaultAdmission(serve.ReplicasFor(p, len(f.models)), serve.DefaultBatch().MaxBatch)
	case replayStorm:
		storm, err := chaos.RunServe(p, chaos.ServingStorm(), serveSeed, f.models, f.reqs, f.spec.Horizon, nil)
		if err != nil {
			return serveReplay{err: err}
		}
		out := summarizeReplay(storm.Shed)
		out.render = storm.Render()
		out.noShedP99 = storm.NoShed.InteractiveP99
		for _, r := range storm.Shed.Responses {
			if r.Tier == serve.Interactive {
				out.interServed++
			}
		}
		for _, rj := range storm.Shed.Rejections {
			if rj.Code == serve.RejectShed && rj.Tier == serve.Interactive {
				out.interShed++
			}
		}
		return out
	}
	rep, err := serve.Run(cfg, f.reqs)
	if err != nil {
		return serveReplay{err: err}
	}
	return summarizeReplay(rep)
}

func summarizeReplay(rep *serve.Report) serveReplay {
	return serveReplay{render: rep.Render(), rejected: rep.Rejected, meanBatch: rep.MeanBatch,
		throughput: rep.Throughput, interP99: rep.InteractiveP99}
}

// serveExperiment is S6: the same seeded request stream served three
// ways — micro-batched, unbatched at identical capacity, and micro-
// batched under the serving-storm chaos scenario with the shed policy on
// and off. The fleet is built once, and with a cache each replay is its
// own DAG node.
func serveExperiment(p platform.Platform) Experiment {
	run := func(c *Cache, ob *obs.Observer) Result {
		f := cachedServeFleet(c)
		if f.err != nil {
			return Result{Metrics: []Metric{{Name: "traffic generation failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: f.err.Error()}
		}
		var batched serveReplay
		if ob != nil {
			// Observed runs bypass the cache so the batched replay's
			// spans are re-recorded.
			batched = runServeReplay(replayBatched, p, f, ob)
		} else {
			batched = cachedServeReplay(c, p, replayBatched, f)
		}
		if batched.err != nil {
			return Result{Metrics: []Metric{{Name: "batched run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: batched.err.Error()}
		}
		unbatched := cachedServeReplay(c, p, replayUnbatched, f)
		if unbatched.err != nil {
			return Result{Metrics: []Metric{{Name: "unbatched run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: unbatched.err.Error()}
		}
		storm := cachedServeReplay(c, p, replayStorm, f)
		if storm.err != nil {
			return Result{Metrics: []Metric{{Name: "serving-storm run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: storm.err.Error()}
		}

		pricer := serve.PricerFor(p)
		amortized := 0
		for _, m := range f.models {
			if pricer.Amortization(m, serve.DefaultBatch().MaxBatch) >= 2 {
				amortized++
			}
		}
		interArrivals := 0
		for _, r := range f.reqs {
			if r.Tier == serve.Interactive {
				interArrivals++
			}
		}
		interAvail := 0.0
		if interArrivals > 0 {
			interAvail = float64(storm.interServed) / float64(interArrivals)
		}
		p99Ratio := 0.0
		if batched.interP99 > 0 {
			p99Ratio = float64(unbatched.interP99) / float64(batched.interP99)
		}
		shedWin := 0.0
		if storm.interP99 > 0 {
			shedWin = float64(storm.noShedP99) / float64(storm.interP99)
		}

		metrics := []Metric{
			{Name: "batched run rejections", Paper: 0, Measured: float64(batched.rejected),
				Unit: "requests", Tol: 1e-9},
			{Name: "models with >=2x analytic amortization", Paper: float64(len(f.models)),
				Measured: float64(amortized), Unit: "models", Tol: 1e-9},
			{Name: "interactive requests shed under storm", Paper: 0,
				Measured: float64(storm.interShed), Unit: "requests", Tol: 1e-9},
			{Name: "interactive availability, storm + shed", Paper: 1,
				Measured: interAvail, Unit: "fraction", Tol: 0.02},
			{Name: "mean micro-batch size", Measured: batched.meanBatch, Unit: "rows"},
			{Name: "batched throughput", Measured: batched.throughput, Unit: "req/s"},
			{Name: "unbatched/batched interactive p99", Measured: p99Ratio, Unit: "ratio"},
			{Name: "shed-policy interactive p99 win (storm)", Measured: shedWin, Unit: "ratio"},
		}

		var detail strings.Builder
		fmt.Fprintf(&detail, "  workload: %s\n", serve.Census(f.reqs))
		fmt.Fprintf(&detail, "  --- micro-batched ---\n%s", indent(batched.render))
		fmt.Fprintf(&detail, "  --- unbatched, same capacity ---\n%s", indent(unbatched.render))
		fmt.Fprintf(&detail, "  --- serving-storm ---\n%s", indent(storm.render))
		return Result{Metrics: metrics, Detail: detail.String()}
	}
	needs := []string{keyServeFleet}
	for _, kind := range serveReplayKinds {
		needs = append(needs, keyServeReplay(p, kind))
	}
	return Experiment{
		ID:    "S6",
		Title: "serving — surrogate inference with micro-batching, admission control, and load shedding",
		PaperClaim: "trained surrogates must answer simulation queries for millions of users; " +
			"dynamic micro-batching amortizes per-dispatch overhead so the same replicas absorb " +
			"bursty diurnal load that collapses an unbatched server, and shedding bulk work under " +
			"partial outages keeps interactive tails bounded without dropping interactive traffic",
		Needs: needs,
		Body:  run,
	}
}
