// Command summit-mlperf runs the MLPerf-HPC-style benchmark campaign
// suite: the registered science workloads (CosmoFlow, DeepCAM,
// OpenCatalyst) priced as closed-division time-to-train, swept across
// strong/weak scaling, and scheduled as concurrent campaign instances
// onto the machine's node pool — singly ("mixed") or as N identical
// instances ("throughput mode"). Every report is a pure function of
// (platform, campaign, seed): any -j replays byte-identically, which is
// exactly what this command's tests check.
//
// Usage:
//
//	summit-mlperf                              # mixed suite on summit
//	summit-mlperf -platform frontier -sweep cosmoflow
//	summit-mlperf -workload deepcam -instances 4   # throughput mode
//	summit-mlperf -scenario campaign-storm         # chaos replay, ckpt policy on vs off
//	summit-mlperf -j 4 -metrics
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"summitscale/internal/bench"
	"summitscale/internal/chaos"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status (0 success, 2 bad
// arguments or a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-mlperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	plat := fs.String("platform", "summit", "benchmark machine ("+strings.Join(platform.Names(), ", ")+")")
	seed := fs.Uint64("seed", 42, "RNG seed for the chaos schedule")
	workers := fs.Int("j", 0, "instance-evaluator cap (0 = all cores); cannot change any output byte")
	workload := fs.String("workload", "", "throughput mode: run -instances copies of this workload ("+strings.Join(bench.Names(), ", ")+")")
	instances := fs.Int("instances", 4, "throughput mode: number of concurrent instances")
	sweep := fs.String("sweep", "", "print strong/weak scaling sweeps for this workload instead of a campaign")
	scenario := fs.String("scenario", "", "replay a chaos scenario against the campaign: \"campaign-storm\", a builtin name, or a scenario file")
	metrics := fs.Bool("metrics", false, "print the obs metrics summary after the report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "summit-mlperf: %v\n", err)
		return 2
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		return fatal(err)
	}
	var ob *obs.Observer
	if *metrics {
		ob = obs.New()
	}

	switch {
	case *sweep != "":
		w, ok := bench.Lookup(*sweep)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q (have %s)", *sweep, strings.Join(bench.Names(), ", ")))
		}
		ladder := bench.SweepNodes(p, 8)
		fmt.Fprint(stdout, bench.RenderSweep(w, bench.WeakScaling, bench.Sweep(p, w, bench.WeakScaling, ladder)))
		fmt.Fprint(stdout, bench.RenderSweep(w, bench.StrongScaling, bench.Sweep(p, w, bench.StrongScaling, ladder)))

	case *scenario != "":
		sc, err := loadScenario(*scenario)
		if err != nil {
			return fatal(err)
		}
		rep, err := chaos.RunCampaign(p, sc, *seed, campaign(p, *workload, *instances), *workers, ob)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, rep.Render())

	default:
		rep, err := bench.RunCampaign(p, campaign(p, *workload, *instances), *workers, ob)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, rep.Render())
	}

	if *metrics {
		fmt.Fprint(stdout, ob.Metrics.Render())
	}
	return 0
}

// campaign resolves the campaign to run: the mixed suite by default, or
// throughput mode when a workload is named.
func campaign(p platform.Platform, workload string, instances int) bench.Campaign {
	if workload == "" {
		return bench.DefaultCampaign(p)
	}
	return bench.ThroughputCampaign(p, workload, instances)
}

// loadScenario resolves -scenario: the campaign reference scenario, a
// builtin name, or a scenario file.
func loadScenario(s string) (*chaos.Scenario, error) {
	if s == "campaign-storm" {
		return chaos.CampaignStorm(), nil
	}
	if strings.ContainsAny(s, "/\\.") {
		text, err := os.ReadFile(s)
		if err != nil {
			return nil, err
		}
		return chaos.Parse(string(text))
	}
	return chaos.Builtin(s)
}
