package core

import (
	"strings"
	"sync"

	"summitscale/internal/bench"
	"summitscale/internal/chaos"
	"summitscale/internal/obs"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/portfolio"
	"summitscale/internal/units"
)

// The dependency-DAG experiment engine. Experiments declare the shared
// sub-results they consume (Experiment.Needs): F1–F6 all read the
// reconstructed portfolio, RS1 reuses the §IV-B scaling studies, and RS4
// replays the chaos scenarios RS3 already simulated at the same seed.
// Each sub-result is a node in a parallel.RunDAG graph, computed once and
// memoized in a keyed Cache, and experiment bodies resolve shared work
// through the cache instead of rebuilding it. Results are identical to
// running each experiment alone at any -j: every result lands in its own
// slot, and every cached value is a deterministic pure function of its
// key.

// Cache is the keyed sub-result store shared by a DAG run (and, via
// Engine, across runs). A nil *Cache is valid and means "no
// memoization": get simply builds. Values must be treated as immutable
// by all consumers.
type Cache struct {
	mu   sync.Mutex
	vals map[string]any
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{vals: map[string]any{}} }

// get returns the cached value for key, building and storing it on a
// miss. Concurrent misses may build twice; the first store wins, so
// callers always observe one canonical value. (The DAG engine orders
// sub-result nodes before their consumers, so in practice builds are
// never concurrent for the same key.)
func (c *Cache) get(key string, build func() any) any {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if v, ok := c.vals[key]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	v := build()
	c.mu.Lock()
	if prev, ok := c.vals[key]; ok {
		v = prev
	} else {
		c.vals[key] = v
	}
	c.mu.Unlock()
	return v
}

// has reports whether key is already memoized.
func (c *Cache) has(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.vals[key]
	return ok
}

// Len returns the number of memoized entries (observability/tests).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}

// Sub-result cache keys. Keys are namespaced "sub/..." (shared
// intermediates, one DAG node each) and "result/<platform>/<ID>"
// (whole-experiment memoization, handled by the engine). Platform-
// dependent keys embed the platform name so replays on other machines,
// which reuse the Summit experiment IDs, never collide with the Summit
// baseline.
const keyPortfolio = "sub/portfolio/dataset"

func keyScalingStudies(p platform.Platform) string {
	return "sub/scaling/studies/" + p.Name
}

func keyChaosReport(p platform.Platform, scenario string) string {
	return "sub/chaos/report/" + p.Name + "/" + scenario
}

func keyCampaignStorm(p platform.Platform) string {
	return "sub/bench/campaign-storm/" + p.Name
}

// keySDCReport is platform-free: the guarded-training ablation injects
// bit flips into an executable run and never consults the fabric, so
// every machine shares one canonical report.
func keySDCReport() string {
	return "sub/chaos/sdc/sdc-storm"
}

// keyServeFleet is platform-free: S6's models and request stream depend
// only on the serving seed.
const keyServeFleet = "sub/serve/fleet"

// keyServeReplay names one of S6's replays of the fleet on a platform.
func keyServeReplay(p platform.Platform, kind string) string {
	return "sub/serve/" + kind + "/" + p.Name
}

// cachedStudy resolves the canonical reconstructed portfolio dataset
// (the Figure 1–6 input) through the cache.
func cachedStudy(c *Cache) *portfolio.Dataset {
	return c.get(keyPortfolio, func() any { return portfolio.Generate(StudySeed) }).(*portfolio.Dataset)
}

// cachedScalingStudies resolves the §IV-B calibrated scaling studies for
// a platform through the cache.
func cachedScalingStudies(c *Cache, p platform.Platform) []ScalingStudy {
	return c.get(keyScalingStudies(p), func() any { return ScalingStudiesOn(p) }).([]ScalingStudy)
}

// chaosOutcome carries a chaos scenario run through the cache; the error
// is part of the memoized value so retries are as deterministic as
// successes.
type chaosOutcome struct {
	rep *chaos.Report
	err error
}

// cachedChaosReport resolves one unobserved chaos scenario run (RS3's
// sweep and RS4's policy comparisons share these at the same seed).
func cachedChaosReport(c *Cache, p platform.Platform, scenario string) (*chaos.Report, error) {
	out := c.get(keyChaosReport(p, scenario), func() any {
		sc, err := chaos.Builtin(scenario)
		if err != nil {
			return chaosOutcome{nil, err}
		}
		rep, err := chaos.Run(sc, resilienceSeed, chaos.Config{Platform: p})
		return chaosOutcome{rep, err}
	}).(chaosOutcome)
	return out.rep, out.err
}

// campaignStormOutcome carries the chaos-campaign replay through the
// cache; the error is part of the memoized value.
type campaignStormOutcome struct {
	rep *chaos.CampaignChaosReport
	err error
}

// cachedCampaignStorm resolves the campaign-storm replay (which embeds
// the failure-free mixed campaign as its Base) for a platform. Observed
// runs bypass the cache so campaign spans are re-recorded per run.
func cachedCampaignStorm(c *Cache, p platform.Platform, ob *obs.Observer) (*chaos.CampaignChaosReport, error) {
	if ob != nil {
		rep, err := chaos.RunCampaign(p, chaos.CampaignStorm(), mlperfSeed, bench.DefaultCampaign(p), mlperfWorkers, ob)
		return rep, err
	}
	out := c.get(keyCampaignStorm(p), func() any {
		rep, err := chaos.RunCampaign(p, chaos.CampaignStorm(), mlperfSeed, bench.DefaultCampaign(p), mlperfWorkers, nil)
		return campaignStormOutcome{rep, err}
	}).(campaignStormOutcome)
	return out.rep, out.err
}

// sdcOutcome carries the silent-data-corruption ablation through the
// cache; the error is part of the memoized value.
type sdcOutcome struct {
	rep *chaos.SDCReport
	err error
}

// cachedSDCReport resolves the guarded-training SDC ablation of one
// scenario at the study seed.
func cachedSDCReport(c *Cache, scenario string) (*chaos.SDCReport, error) {
	out := c.get(keySDCReport(), func() any {
		sc, err := chaos.Builtin(scenario)
		if err != nil {
			return sdcOutcome{nil, err}
		}
		rep, err := chaos.RunSDC(sc, resilienceSeed, chaos.SDCConfig{})
		return sdcOutcome{rep, err}
	}).(sdcOutcome)
	return out.rep, out.err
}

// cachedServeFleet resolves S6's model fleet and request stream.
func cachedServeFleet(c *Cache) serveFleet {
	return c.get(keyServeFleet, func() any { return newServeFleet() }).(serveFleet)
}

// cachedServeReplay resolves one unobserved S6 replay of the fleet f on
// a platform.
func cachedServeReplay(c *Cache, p platform.Platform, kind string, f serveFleet) serveReplay {
	return c.get(keyServeReplay(p, kind), func() any { return runServeReplay(kind, p, f, nil) }).(serveReplay)
}

// subResultNode is one shared-intermediate node of the experiment DAG. A
// node may depend on other sub-result nodes; the engine schedules every
// node a needed one depends on, transitively.
type subResultNode struct {
	key  string
	deps []string
	run  func(c *Cache)
}

// subResultNodes enumerates every shared intermediate the registry's
// experiments may declare in Needs, for the given platform. Among ready
// nodes RunDAG starts the lowest declaration index first, so the order
// here is the order cold work starts in: S6's fleet and replays, the
// registry's largest block of work, come first.
func subResultNodes(p platform.Platform) []subResultNode {
	nodes := []subResultNode{{key: keyServeFleet, run: func(c *Cache) { cachedServeFleet(c) }}}
	for _, kind := range serveReplayKinds {
		nodes = append(nodes, subResultNode{
			key:  keyServeReplay(p, kind),
			deps: []string{keyServeFleet},
			run:  func(c *Cache) { cachedServeReplay(c, p, kind, cachedServeFleet(c)) },
		})
	}
	nodes = append(nodes,
		subResultNode{key: keyPortfolio, run: func(c *Cache) { cachedStudy(c) }},
		subResultNode{key: keyScalingStudies(p), run: func(c *Cache) { cachedScalingStudies(c, p) }},
	)
	for _, name := range chaos.Names() {
		name := name
		nodes = append(nodes, subResultNode{
			key: keyChaosReport(p, name),
			run: func(c *Cache) { cachedChaosReport(c, p, name) },
		})
	}
	nodes = append(nodes, subResultNode{
		key: keyCampaignStorm(p),
		run: func(c *Cache) { cachedCampaignStorm(c, p, nil) },
	})
	nodes = append(nodes, subResultNode{
		key: keySDCReport(),
		run: func(c *Cache) { cachedSDCReport(c, "sdc-storm") },
	})
	return nodes
}

// Engine runs experiments through the DAG scheduler with a persistent
// sub-result cache: the first run computes every node once (shared
// intermediates deduplicated across experiments), subsequent runs reuse
// memoized results — the MLPerf-HPC "multi-instance" framing where
// shared setup work must not be redundantly recomputed per instance.
// An Engine is safe for concurrent use.
type Engine struct{ cache *Cache }

// NewEngine returns an engine with a cold cache.
func NewEngine() *Engine { return &Engine{cache: NewCache()} }

// Cache exposes the engine's memo store (tests and diagnostics).
func (en *Engine) Cache() *Cache { return en.cache }

// RunAllParallel runs the Summit registry through Run with at most
// workers goroutines and renders the report in registry order.
func (en *Engine) RunAllParallel(workers int) (string, bool) {
	exps := Experiments()
	return Report(exps, en.Run(platform.Summit(), exps, workers, nil))
}

// Run executes exps on platform p with at most workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns their results in exps
// order, identical at any worker count and any cache temperature.
//
// An unobserved run (ob == nil) goes through the engine's cache: each
// sub-result the experiments declare in Needs is its own node, as is
// every sub-result such a node depends on, transitively; every node
// waits on the nodes it depends on, and whole results are memoized under
// result/<platform>/<ID>. An observed run bypasses the cache entirely,
// because spans must be re-recorded per run: each experiment is an
// independent node that emits one "dag" span carrying its declared
// needs, then runs its body recording into ob.
func (en *Engine) Run(p platform.Platform, exps []Experiment, workers int, ob *obs.Observer) []Result {
	var cache *Cache
	var nodes []parallel.Node
	if ob == nil {
		cache = en.cache
		subs := subResultNodes(p)
		deps := make(map[string][]string, len(subs))
		for _, sn := range subs {
			deps[sn.key] = sn.deps
		}
		need := map[string]bool{}
		var pull func(k string)
		pull = func(k string) {
			if !need[k] {
				need[k] = true
				for _, d := range deps[k] {
					pull(d)
				}
			}
		}
		for _, e := range exps {
			for _, k := range e.Needs {
				pull(k)
			}
		}
		for _, sn := range subs {
			if need[sn.key] {
				nodes = append(nodes, parallel.Node{ID: sn.key, Deps: sn.deps, Run: func() { sn.run(cache) }})
			}
		}
	}
	rs := make([]Result, len(exps))
	for i, e := range exps {
		nd := parallel.Node{ID: "exp/" + e.ID, Run: func() {
			ob.Span("dag", "schedule", "exp/"+e.ID,
				units.Seconds(i), 1, obs.Str("needs", strings.Join(e.Needs, ",")))
			rs[i] = cache.get("result/"+p.Name+"/"+e.ID, func() any { return e.Body(cache, ob) }).(Result)
		}}
		if ob == nil {
			nd.Deps = e.Needs
		}
		nodes = append(nodes, nd)
	}
	if err := parallel.RunDAG(workers, nodes); err != nil {
		// The registry's graph is static and validated by tests; a
		// malformed graph here is a programming error.
		panic(err)
	}
	return rs
}
