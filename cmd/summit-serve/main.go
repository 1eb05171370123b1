// Command summit-serve runs the surrogate-inference serving simulator:
// a seeded synthetic user population streams requests at a fleet of
// trained surrogates (ridge, random forest, MLP) behind dynamic
// micro-batching and bounded admission queues, with replica pools sized
// from the platform registry and service times priced by the device
// roofline. The report, responses, and trace are a pure function of
// (platform, seed, flags): any -j and any scenario replay byte-identically,
// which is exactly what this command's tests check.
//
// Usage:
//
//	summit-serve                              # batched vs unbatched on summit
//	summit-serve -platform frontier -seed 7
//	summit-serve -j 4 -trace serve.json       # Chrome trace of the batched run
//	summit-serve -scenario serving-storm      # chaos replay, shed on vs off
//	summit-serve -scenario link-flap -metrics
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"summitscale/internal/chaos"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the reports to stdout
// and diagnostics to stderr, and returns the exit status (0 success, 2 bad
// arguments or a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	plat := fs.String("platform", "summit", "serving machine ("+strings.Join(platform.Names(), ", ")+")")
	seed := fs.Uint64("seed", 42, "RNG seed for model weights, traffic, and chaos schedules")
	workers := fs.Int("j", 0, "inference-kernel worker cap (0 = all cores); cannot change any output byte")
	scenario := fs.String("scenario", "", "replay a chaos scenario against the fleet: \"serving-storm\", a builtin name, or a scenario file")
	unbatched := fs.Bool("unbatched", false, "also run the same stream with micro-batching disabled at identical capacity")
	traceOut := fs.String("trace", "", "write the batched run's simulated-clock spans as Chrome trace-event JSON to this file")
	metrics := fs.Bool("metrics", false, "print the obs metrics summary after the report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "summit-serve: %v\n", err)
		return 2
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		return fatal(err)
	}
	var sc *chaos.Scenario
	if *scenario != "" {
		if sc, err = loadScenario(*scenario); err != nil {
			return fatal(err)
		}
	}
	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
	}

	models := serve.DefaultModels(*seed)
	spec := serve.DefaultTraffic()
	reqs, err := spec.Generate(*seed, models)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "workload: %s\n", serve.Census(reqs))

	if sc != nil {
		rep, err := chaos.RunServe(p, sc, *seed, models, reqs, spec.Horizon, ob)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, rep.Render())
	} else {
		cfg := serve.Config{
			Platform: p, Models: models, Horizon: spec.Horizon,
			Workers: *workers, Obs: ob,
		}
		rep, err := serve.Run(cfg, reqs)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, rep.Render())
		if *unbatched {
			ucfg := serve.Config{
				Platform: p, Models: models, Horizon: spec.Horizon, Workers: *workers,
				Batch:     serve.BatchConfig{MaxBatch: 1, MaxDelay: 0},
				Admission: serve.DefaultAdmission(rep.Replicas, serve.DefaultBatch().MaxBatch),
			}
			urep, err := serve.Run(ucfg, reqs)
			if err != nil {
				return fatal(err)
			}
			fmt.Fprintln(stdout, "--- unbatched, same capacity ---")
			fmt.Fprint(stdout, urep.Render())
		}
	}

	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			return fatal(err)
		}
		// stderr, so stdout stays byte-comparable across trace paths
		fmt.Fprintf(stderr, "summit-serve: wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Fprint(stdout, ob.Trace.Summary())
		fmt.Fprint(stdout, ob.Metrics.Render())
	}
	return 0
}

// loadScenario resolves -scenario: the serving reference scenario, a
// builtin name, or a scenario file.
func loadScenario(s string) (*chaos.Scenario, error) {
	if s == "serving-storm" {
		return chaos.ServingStorm(), nil
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
