// Package core assembles the reproduction study: a registry of every
// table, figure, scaling study, system-requirement analysis, and workflow
// case study in the paper, each with its paper-reported reference values
// and a runner that regenerates the result from this repository's
// substrates. cmd/summit-* and the benchmark harness drive this package;
// EXPERIMENTS.md is generated from its comparison report.
package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"summitscale/internal/obs"
)

// Metric is one paper-vs-measured comparison.
type Metric struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
	// Tol is the acceptable relative deviation (0.15 = 15%). Zero means
	// the metric is informational (no paper value to hold).
	Tol float64
}

// RelErr returns |measured-paper|/|paper|; when the paper value is zero
// (a structural-zero claim) it returns |measured| so the tolerance bounds
// the absolute deviation instead.
func (m Metric) RelErr() float64 {
	if m.Paper == 0 {
		return math.Abs(m.Measured)
	}
	return math.Abs(m.Measured-m.Paper) / math.Abs(m.Paper)
}

// Within reports whether the metric holds its tolerance (informational
// metrics always pass).
func (m Metric) Within() bool {
	if m.Tol == 0 {
		return true
	}
	return m.RelErr() <= m.Tol
}

// Result is one experiment's outcome.
type Result struct {
	Metrics []Metric
	// Detail is the rendered artifact (figure, table, curve).
	Detail string
}

// Pass reports whether every metric held.
func (r Result) Pass() bool {
	for _, m := range r.Metrics {
		if !m.Within() {
			return false
		}
	}
	return true
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID         string // e.g. "F1", "T3", "S1", "IO1", "C1", "W2"
	Title      string
	PaperClaim string
	// Needs lists the sub-result cache keys this experiment consumes
	// (see dag.go). The DAG scheduler computes each listed sub-result
	// in its own node before this experiment runs.
	Needs []string
	// Body regenerates the result. A non-nil c resolves the shared
	// sub-results through the cache (nil builds them inline); a non-nil
	// ob records spans and metrics as the body goes (nil records
	// nothing). Neither may change the Result: memoization and
	// observation never change the report, and the goldens depend on it.
	Body func(c *Cache, ob *obs.Observer) Result
}

// Run executes the experiment with no memoization and no observer.
func (e Experiment) Run() Result { return e.Body(nil, nil) }

// Experiments returns the full registry in paper order. The registry is
// built once and cached — every experiment closure is pure with respect to
// the registry (each Body constructs its own RNGs and substrates), so the
// bench harness and the commands can call this per lookup without
// rebuilding ~22 experiment closures each time. Callers must not mutate
// the returned slice.
var Experiments = sync.OnceValue(buildExperiments)

func buildExperiments() []Experiment {
	var out []Experiment
	out = append(out, tableExperiments()...)
	out = append(out, figureExperiments()...)
	out = append(out, schedulingExperiment())
	out = append(out, scalingExperiments()...)
	out = append(out, sysreqExperiments()...)
	out = append(out, trustExperiment())
	out = append(out, workflowExperiments()...)
	out = append(out, resilienceExperiments()...)
	out = append(out, chaosExperiments()...)
	out = append(out, serveExperiments()...)
	out = append(out, mlperfExperiments()...)
	return out
}

// RenderResult formats one experiment outcome.
func RenderResult(e Experiment, r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(&b, "paper: %s\n", e.PaperClaim)
	for _, m := range r.Metrics {
		status := "ok"
		if !m.Within() {
			status = "DEVIATES"
		}
		if m.Tol == 0 {
			fmt.Fprintf(&b, "  %-38s measured %12.4g %-8s (informational)\n",
				m.Name, m.Measured, m.Unit)
			continue
		}
		fmt.Fprintf(&b, "  %-38s paper %12.4g  measured %12.4g %-8s relerr %5.1f%%  [%s]\n",
			m.Name, m.Paper, m.Measured, m.Unit, 100*m.RelErr(), status)
	}
	if r.Detail != "" {
		b.WriteString(r.Detail)
		if !strings.HasSuffix(r.Detail, "\n") {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Report renders results in order, one RenderResult section plus a blank
// line per experiment, and reports whether every experiment passed.
func Report(exps []Experiment, rs []Result) (string, bool) {
	var b strings.Builder
	all := true
	for i, e := range exps {
		b.WriteString(RenderResult(e, rs[i]))
		b.WriteString("\n")
		all = all && rs[i].Pass()
	}
	return b.String(), all
}
