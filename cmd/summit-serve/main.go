// Command summit-serve runs the surrogate-inference serving simulator:
// a seeded synthetic user population streams requests at a fleet of
// trained surrogates (ridge, random forest, MLP) behind dynamic
// micro-batching and bounded admission queues, with replica pools sized
// from the platform registry and service times priced by the device
// roofline. The report, responses, and trace are a pure function of
// (platform, seed, flags): any -j and any scenario replay byte-identically,
// which is exactly what the CI serve-smoke gate checks.
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
	"flag"
	"fmt"
	"os"
	"strings"

	"summitscale/internal/chaos"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
)

func main() {
	plat := flag.String("platform", "summit", "serving machine ("+strings.Join(platform.Names(), ", ")+")")
	seed := flag.Uint64("seed", 42, "RNG seed for model weights, traffic, and chaos schedules")
	workers := flag.Int("j", 0, "inference-kernel worker cap (0 = all cores); cannot change any output byte")
	scenario := flag.String("scenario", "", "replay a chaos scenario against the fleet: \"serving-storm\", a builtin name, or a scenario file")
	unbatched := flag.Bool("unbatched", false, "also run the same stream with micro-batching disabled at identical capacity")
	traceOut := flag.String("trace", "", "write the batched run's simulated-clock spans as Chrome trace-event JSON to this file")
	metrics := flag.Bool("metrics", false, "print the obs metrics summary after the report")
	flag.Parse()

	p, err := platform.Lookup(*plat)
	if err != nil {
		fatal(err)
	}
	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
	}

	models := serve.DefaultModels(*seed)
	spec := serve.DefaultTraffic()
	reqs, err := spec.Generate(*seed, models)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload: %s\n", serve.Census(reqs))

	if *scenario != "" {
		sc, err := loadScenario(*scenario)
		if err != nil {
			fatal(err)
		}
		rep, err := chaos.RunServe(p, sc, *seed, models, reqs, spec.Horizon, ob)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Render())
	} else {
		cfg := serve.Config{
			Platform: p, Models: models, Horizon: spec.Horizon,
			Workers: *workers, Obs: ob,
		}
		rep, err := serve.Run(cfg, reqs)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Render())
		if *unbatched {
			ucfg := serve.Config{
				Platform: p, Models: models, Horizon: spec.Horizon, Workers: *workers,
				Batch:     serve.BatchConfig{MaxBatch: 1, MaxDelay: 0},
				Admission: serve.DefaultAdmission(rep.Replicas, serve.DefaultBatch().MaxBatch),
			}
			urep, err := serve.Run(ucfg, reqs)
			if err != nil {
				fatal(err)
			}
			fmt.Println("--- unbatched, same capacity ---")
			fmt.Print(urep.Render())
		}
	}

	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			fatal(err)
		}
		// stderr, so stdout stays byte-comparable across trace paths
		fmt.Fprintf(os.Stderr, "summit-serve: wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Print(ob.Trace.Summary())
		fmt.Print(ob.Metrics.Render())
	}
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "summit-serve: %v\n", err)
	os.Exit(2)
}
