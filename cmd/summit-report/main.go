// Command summit-report regenerates the paper's portfolio-study artifacts:
// Tables I-III and Figures 1-6 (§II-IV), from the reconstructed project
// dataset.
//
// Usage:
//
//	summit-report            # everything
//	summit-report -fig 4     # one figure
//	summit-report -table 3   # one table
//	summit-report -gb        # the §IV-A Gordon Bell review
//	summit-report -seed 7    # alternative dataset seed
//	summit-report -svg figures   # Figures 1-6 and the S1-S5 scaling curves as SVG
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"summitscale/internal/core"
	"summitscale/internal/portfolio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the artifacts to
// stdout (or, with -svg, into a directory) and diagnostics to stderr,
// and returns the exit code. An unknown figure, table or CSV export
// exits 2 before anything is printed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "render a single figure (1-6)")
	table := fs.Int("table", 0, "render a single table (1-3)")
	gb := fs.Bool("gb", false, "render the Gordon Bell AI/ML finalist review")
	hours := fs.Bool("hours", false, "render the allocation-hours view")
	csvOut := fs.String("csv", "", "export CSV to stdout: projects | fig2 | fig6")
	svgDir := fs.String("svg", "", "write the six figures and the five Summit scaling curves (s1-s5) as SVG files into this directory")
	seed := fs.Uint64("seed", 1, "portfolio dataset seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "summit-report: "+format+"\n", a...)
		return code
	}

	d := portfolio.Generate(*seed)
	figs := map[int]func() string{
		1: d.RenderFigure1, 2: d.RenderFigure2, 3: d.RenderFigure3,
		4: d.RenderFigure4, 5: d.RenderFigure5, 6: d.RenderFigure6,
	}
	tables := map[int]func() string{
		1: portfolio.RenderTableI, 2: portfolio.RenderTableII, 3: portfolio.RenderTableIII,
	}

	switch {
	case *svgDir != "":
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return fail(1, "%v", err)
		}
		svgs := d.AllFigureSVGs()
		for _, s := range core.ScalingStudies() {
			svgs[strings.ToLower(s.ID)] = core.RenderScalingSVG(s)
		}
		// Sorted stems: figure1..figure6, then s1..s5.
		stems := make([]string, 0, len(svgs))
		for stem := range svgs {
			stems = append(stems, stem)
		}
		sort.Strings(stems)
		for _, stem := range stems {
			path := filepath.Join(*svgDir, stem+".svg")
			if err := os.WriteFile(path, []byte(svgs[stem]), 0o644); err != nil {
				return fail(1, "%v", err)
			}
			fmt.Fprintln(stdout, "wrote", path)
		}
	case *csvOut != "":
		var err error
		switch *csvOut {
		case "projects":
			err = d.WriteProjectsCSV(stdout)
		case "fig2":
			err = d.WriteFigure2CSV(stdout)
		case "fig6":
			err = d.WriteFigure6CSV(stdout)
		default:
			return fail(2, "unknown csv export %q", *csvOut)
		}
		if err != nil {
			return fail(1, "%v", err)
		}
	case *fig != 0:
		f, ok := figs[*fig]
		if !ok {
			return fail(2, "no figure %d", *fig)
		}
		fmt.Fprint(stdout, f())
	case *table != 0:
		t, ok := tables[*table]
		if !ok {
			return fail(2, "no table %d", *table)
		}
		fmt.Fprint(stdout, t())
	case *gb:
		fmt.Fprint(stdout, portfolio.RenderGordonBellReview())
	case *hours:
		fmt.Fprint(stdout, d.RenderHours())
	default:
		for i := 1; i <= 3; i++ {
			fmt.Fprintln(stdout, tables[i]())
		}
		for i := 1; i <= 6; i++ {
			fmt.Fprintln(stdout, figs[i]())
		}
		fmt.Fprint(stdout, portfolio.RenderGordonBellReview())
	}
	return 0
}
