// Command summit-sysreq regenerates the §VI-B hardware-requirement
// analyses: the training-input I/O study (GPFS vs node-local NVMe) and
// the allreduce communication study (ResNet-50 vs BERT-large).
//
// Usage:
//
//	summit-sysreq                      # both analyses on Summit
//	summit-sysreq -io                  # I/O only
//	summit-sysreq -comm                # communication only
//	summit-sysreq -platform frontier   # replay on another machine
//	summit-sysreq -platforms           # list registered machines
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"summitscale/internal/core"
	"summitscale/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit code (2 for a bad
// flag or an unknown platform).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-sysreq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ioOnly := fs.Bool("io", false, "I/O analysis only")
	comm := fs.Bool("comm", false, "communication analysis only")
	roofline := fs.Bool("roofline", false, "device roofline analysis only")
	plat := fs.String("platform", "summit", "machine to analyse ("+strings.Join(platform.Names(), ", ")+")")
	list := fs.Bool("platforms", false, "list registered platforms and exit")
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
	p, err := platform.Lookup(*plat)
	if err != nil {
		fmt.Fprintf(stderr, "summit-sysreq: %v\n", err)
		return 2
	}

	exps := core.SysreqExperimentsOn(p) // IO1, C1, R1
	all := !*ioOnly && !*comm && !*roofline
	if *ioOnly || all {
		e := exps[0]
		fmt.Fprint(stdout, core.RenderResult(e, e.Run()))
		fmt.Fprintln(stdout)
	}
	if *comm || all {
		e := exps[1]
		fmt.Fprint(stdout, core.RenderResult(e, e.Run()))
		fmt.Fprintln(stdout)
	}
	if *roofline || all {
		e := exps[2]
		fmt.Fprint(stdout, core.RenderResult(e, e.Run()))
	}
	return 0
}
