package core

import (
	"fmt"
	"strings"

	"summitscale/internal/bench"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
)

// The benchmark-campaign study: MLPerf HPC's argument that a leadership
// machine is measured not by one job's FLOP/s but by time-to-train on
// real science workloads — singly (closed-division TTT with stage-in
// counted), across scale (strong/weak-scaling sweeps), and all at once
// (multi-instance throughput mode, where N concurrent instances contend
// for the node pool and the figure of merit is aggregate machine
// throughput). S7 reproduces that argument on the simulated machine and
// then stress-tests it: the same mixed campaign replayed under the
// campaign-storm chaos scenario, with the adaptive Daly-interval
// checkpoint policy on and off.

// mlperfSeed roots the campaign study's chaos schedule.
const mlperfSeed = 42

// mlperfWorkers is the fixed evaluator width for campaign runs inside
// experiments; campaign reports are byte-identical at any width, so this
// only sets wall time.
const mlperfWorkers = 4

// mlperfExperiments returns the campaign study on the paper baseline.
func mlperfExperiments() []Experiment {
	return MLPerfExperimentsOn(platform.Summit())
}

// MLPerfExperimentsOn returns the benchmark-campaign experiments on the
// given platform: S7, the multi-workload campaign suite.
func MLPerfExperimentsOn(p platform.Platform) []Experiment {
	return []Experiment{mlperfExperiment(p)}
}

// mlperfExperiment is S7: the registered workload suite priced singly
// and under scaling sweeps, the mixed campaign scheduled onto the node
// pool, the multi-instance throughput mode, and the storm replay.
func mlperfExperiment(p platform.Platform) Experiment {
	run := func(c *Cache, ob *obs.Observer) Result {
		storm, err := cachedCampaignStorm(c, p, ob)
		if err != nil {
			return Result{Metrics: []Metric{{Name: "campaign-storm run failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}
		mixed := storm.Base
		tc := bench.ThroughputCampaign(p, "cosmoflow", 4)
		thr, err := bench.RunCampaign(p, tc, mlperfWorkers, ob)
		if err != nil {
			return Result{Metrics: []Metric{{Name: "throughput campaign failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}

		cf, _ := bench.Lookup("cosmoflow")
		ladder := bench.SweepNodes(p, 8)
		weak := bench.Sweep(p, cf, bench.WeakScaling, ladder)
		strong := bench.Sweep(p, cf, bench.StrongScaling, ladder)

		closed := 0
		for _, ir := range mixed.Instances {
			if ir.TTT.Converged && ir.Proxy.Converged {
				closed++
			}
		}
		makespanExcess := storm.Adaptive.Makespan - storm.Naive.Makespan
		if makespanExcess < 0 {
			makespanExcess = 0
		}
		inflation := 0.0
		if mixed.Sched.Makespan > 0 {
			inflation = storm.Naive.Makespan / mixed.Sched.Makespan
		}

		metrics := []Metric{
			{Name: "mixed campaign closed-division instances", Paper: float64(len(mixed.Instances)),
				Measured: float64(closed), Unit: "instances", Tol: 1e-9},
			{Name: "throughput-mode concurrent instances", Paper: 4,
				Measured: float64(thr.MaxConcurrent), Unit: "instances", Tol: 1e-9},
			{Name: "storm: adaptive makespan excess over no-ckpt", Paper: 0,
				Measured: float64(makespanExcess), Unit: "s", Tol: 1e-9},
			{Name: "mixed campaign utilization (busy span)", Measured: 100 * mixed.Sched.Utilization, Unit: "%"},
			{Name: "aggregate machine throughput (mixed)", Measured: mixed.AggThroughput, Unit: "samples/s"},
			{Name: "throughput-mode aggregate throughput", Measured: thr.AggThroughput, Unit: "samples/s"},
			{Name: "cosmoflow weak-scaling efficiency at ladder top",
				Measured: weak[len(weak)-1].Efficiency, Unit: "fraction"},
			{Name: "storm makespan inflation, no-ckpt vs failure-free", Measured: inflation, Unit: "ratio"},
		}

		var detail strings.Builder
		fmt.Fprintf(&detail, "  --- single-instance TTT ---\n")
		for _, w := range bench.Suite() {
			fmt.Fprintf(&detail, "    %v\n", bench.TimeToTrain(p, w, bench.ClosedNodes(p, w)))
		}
		fmt.Fprintf(&detail, "  --- scaling sweeps ---\n%s%s",
			indent(bench.RenderSweep(cf, bench.WeakScaling, weak)),
			indent(bench.RenderSweep(cf, bench.StrongScaling, strong)))
		fmt.Fprintf(&detail, "  --- mixed campaign ---\n%s", indent(mixed.Render()))
		fmt.Fprintf(&detail, "  --- throughput mode ---\n%s", indent(thr.Render()))
		fmt.Fprintf(&detail, "  --- campaign storm ---\n%s", indent(storm.Render()))

		return Result{Metrics: metrics, Detail: detail.String()}
	}
	return Experiment{
		ID:    "S7",
		Title: "benchmark campaigns — MLPerf-HPC-style time-to-train, scaling sweeps, and throughput mode",
		PaperClaim: "leadership machines are measured by time-to-train on real science workloads: " +
			"closed-division TTT with data staging counted, efficiency across strong/weak scaling, " +
			"and multi-instance throughput mode where concurrent campaigns fill the machine — " +
			"and the measurement must survive the machine's real failure regime",
		Needs: []string{keyCampaignStorm(p)},
		Body:  run,
	}
}
