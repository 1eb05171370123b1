// Command summit-chaos compiles an adversarial failure scenario and
// drives it across every simulator — checkpointing, collectives, staging,
// elastic training, and the cross-facility campaign — reporting how far
// each subsystem degrades and whether the graceful-degradation policies
// hold the line.
//
// Usage:
//
//	summit-chaos -list                       # builtin scenarios
//	summit-chaos -scenario rack-cascade      # run a builtin
//	summit-chaos -scenario worst-week.chaos  # run a scenario file
//	summit-chaos -scenario all -check        # every builtin + invariants
//	summit-chaos -scenario perfect-storm -seed 7 -platform frontier
//	summit-chaos -scenario perfect-storm -trace out.json -metrics
//	summit-chaos -scenario sdc-storm -sdc -j 4   # corruption ablation
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
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the reports to stdout
// and diagnostics to stderr, and returns the exit status (0 success, 1 an
// invariant is violated, 2 bad arguments or a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "perfect-storm", "builtin scenario name, path to a scenario file, or \"all\" for every builtin")
	seed := fs.Uint64("seed", 20220523, "RNG seed; the same seed always compiles the same schedule")
	plat := fs.String("platform", "summit", "machine under test ("+strings.Join(platform.Names(), ", ")+")")
	check := fs.Bool("check", false, "run the invariant suite (replay determinism, byte conservation, monotone degradation, policies load-bearing) after each scenario")
	sdc := fs.Bool("sdc", false, "run the silent-data-corruption ablation (clean vs detection-on vs detection-off guarded training) after each scenario's report")
	jobs := fs.Int("j", 1, "ablation legs to run concurrently (-sdc); the report is identical at any value")
	list := fs.Bool("list", false, "list builtin scenarios and exit")
	traceOut := fs.String("trace", "", "write the run's simulated-clock spans as Chrome trace-event JSON to this file")
	metrics := fs.Bool("metrics", false, "print the obs metrics summary after the report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "summit-chaos: %v\n", err)
		return 2
	}

	if *list {
		for _, name := range chaos.Names() {
			sc, err := chaos.Builtin(name)
			if err != nil {
				return fatal(err)
			}
			fmt.Fprintf(stdout, "%-16s %d nodes over %s\n", name, sc.Nodes, hours(sc))
		}
		return 0
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		return fatal(err)
	}

	var scenarios []*chaos.Scenario
	switch {
	case *scenario == "all":
		for _, name := range chaos.Names() {
			sc, err := chaos.Builtin(name)
			if err != nil {
				return fatal(err)
			}
			scenarios = append(scenarios, sc)
		}
	case looksLikeFile(*scenario):
		text, err := os.ReadFile(*scenario)
		if err != nil {
			return fatal(err)
		}
		sc, err := chaos.Parse(string(text))
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", *scenario, err))
		}
		scenarios = append(scenarios, sc)
	default:
		sc, err := chaos.Builtin(*scenario)
		if err != nil {
			return fatal(err)
		}
		scenarios = append(scenarios, sc)
	}

	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
	}

	failed := false
	for i, sc := range scenarios {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		rep, err := chaos.Run(sc, *seed, chaos.Config{Platform: p, Obs: ob})
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, rep.Render())
		if *sdc {
			srep, err := chaos.RunSDC(sc, *seed, chaos.SDCConfig{Jobs: *jobs, Obs: ob})
			if err != nil {
				return fatal(err)
			}
			fmt.Fprint(stdout, srep.Render())
		}
		if *check {
			if err := chaos.CheckInvariants(sc, *seed, chaos.Config{Platform: p}); err != nil {
				fmt.Fprintf(stdout, "  INVARIANT VIOLATION: %v\n", err)
				failed = true
			} else {
				fmt.Fprintln(stdout, "  invariants: ok")
			}
		}
	}

	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "summit-chaos: wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Fprint(stdout, ob.Trace.Summary())
		fmt.Fprint(stdout, ob.Metrics.Render())
	}
	if failed {
		return 1
	}
	return 0
}

// looksLikeFile treats anything with a path separator or extension as a
// scenario file, so builtin names never shadow files and vice versa.
func looksLikeFile(s string) bool {
	return strings.ContainsAny(s, "/\\.") || fileExists(s)
}

func fileExists(s string) bool {
	st, err := os.Stat(s)
	return err == nil && !st.IsDir()
}

func hours(sc *chaos.Scenario) string {
	return fmt.Sprintf("%gh", float64(sc.Horizon)/3600)
}
