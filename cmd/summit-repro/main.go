// Command summit-repro runs the complete reproduction: every table,
// figure, scaling study, system-requirement analysis, workflow case
// study, and resilience study, with paper-vs-measured comparisons. Exit
// status 1 if any metric falls outside its tolerance.
//
// Usage:
//
//	summit-repro                       # full registry on the Summit baseline
//	summit-repro -md                   # markdown paper-vs-measured table
//	summit-repro -platform frontier    # replay the machine-aware studies
//	summit-repro -platforms            # list registered machines
//	summit-repro -experiment RS2       # run one experiment by ID
//	summit-repro -platform frontier -experiment S4
//	                                   # one experiment of a machine's replay
//	summit-repro -experiment RS2 -trace out.json -metrics
//	                                   # + Chrome trace & metrics summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"summitscale/internal/core"
	"summitscale/internal/obs"
	"summitscale/internal/platform"
)

// experimentsOn returns the experiments a run on p covers. The full
// registry (tables, figures, scaling, sysreq, workflows, resilience)
// carries the paper's reference values on the baseline; other machines
// replay the machine-aware studies.
func experimentsOn(p platform.Platform) []core.Experiment {
	if p.IsPaperBaseline() {
		return core.Experiments()
	}
	exps := append(core.SysreqExperimentsOn(p), core.ScalingExperimentsOn(p)...)
	exps = append(exps, core.ResilienceExperimentsOn(p)...)
	exps = append(exps, core.ChaosExperimentsOn(p)...)
	return append(exps, core.MLPerfExperimentsOn(p)...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status (0 all within
// tolerance, 1 a metric deviates or the trace cannot be written, 2 bad
// arguments).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	md := fs.Bool("md", false, "emit a markdown paper-vs-measured table of the Summit registry instead of the full report")
	jobs := fs.Int("j", runtime.NumCPU(), "experiment workers; 1 runs the experiment DAG sequentially (output is byte-identical either way)")
	plat := fs.String("platform", "summit", "machine to reproduce on ("+strings.Join(platform.Names(), ", ")+"); non-baseline machines replay the sysreq, scaling, resilience, chaos, and benchmark-campaign studies")
	list := fs.Bool("platforms", false, "list registered platforms and exit")
	expID := fs.String("experiment", "", "run a single experiment by ID (e.g. RS2), one of those the platform runs, instead of them all")
	traceOut := fs.String("trace", "", "write the run's simulated-clock spans as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	metrics := fs.Bool("metrics", false, "print the obs metrics summary and trace summary after the report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, n := range platform.Names() {
			p := platform.MustLookup(n)
			fmt.Fprintf(stdout, "%-16s %s (%d nodes)\n", n, p.Name, p.Nodes)
		}
		return 0
	}
	if *md {
		exps := core.Experiments()
		fmt.Fprint(stdout, core.RenderMarkdown(exps, core.NewEngine().Run(platform.Summit(), exps, *jobs, nil)))
		return 0
	}

	p, err := platform.Lookup(*plat)
	if err != nil {
		fmt.Fprintf(stderr, "summit-repro: %v\n", err)
		return 2
	}

	// One observer spans the whole run: the obs layer is concurrency-safe
	// and renders byte-deterministically regardless of -j or scheduling.
	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
	}

	var report string
	var pass bool
	exps := experimentsOn(p)
	if *expID != "" {
		var e core.Experiment
		for _, x := range exps {
			if x.ID == *expID {
				e = x
			}
		}
		switch {
		case e.Body != nil:
		case p.IsPaperBaseline():
			fmt.Fprintf(stderr, "summit-repro: unknown experiment %q\n", *expID)
			return 2
		default:
			fmt.Fprintf(stderr, "summit-repro: platform %s does not replay experiment %q\n", *plat, *expID)
			return 2
		}
		r := e.Body(nil, ob)
		report, pass = core.RenderResult(e, r), r.Pass()
	} else {
		report, pass = core.Report(exps, core.NewEngine().Run(p, exps, *jobs, ob))
	}
	fmt.Fprint(stdout, report)
	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			fmt.Fprintf(stderr, "summit-repro: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "summit-repro: wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Fprint(stdout, ob.Trace.Summary())
		fmt.Fprint(stdout, ob.Metrics.Render())
	}
	if !pass {
		fmt.Fprintln(stderr, "summit-repro: one or more metrics deviate from the paper")
		return 1
	}
	fmt.Fprintln(stdout, "summit-repro: all experiments within tolerance")
	return 0
}
