package core

import (
	"fmt"
	"strings"
)

// RenderMarkdown produces a paper-vs-measured markdown table, one row per
// metric of each experiment's result — the machine-generated companion
// to EXPERIMENTS.md, emitted by `summit-repro -md`.
func RenderMarkdown(exps []Experiment, rs []Result) string {
	var b strings.Builder
	b.WriteString("# Reproduction report (generated by summit-repro -md)\n\n")
	b.WriteString("| ID | Experiment | Metric | Paper | Measured | Rel. err | Status |\n")
	b.WriteString("|----|------------|--------|-------|----------|----------|--------|\n")
	for i, e := range exps {
		for _, m := range rs[i].Metrics {
			paper := "—"
			relerr := "—"
			status := "info"
			if m.Tol != 0 {
				paper = fmt.Sprintf("%.4g", m.Paper)
				relerr = fmt.Sprintf("%.1f%%", 100*m.RelErr())
				if m.Within() {
					status = "ok"
				} else {
					status = "**DEVIATES**"
				}
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %.4g | %s | %s |\n",
				e.ID, escapePipes(e.Title), escapePipes(m.Name), paper, m.Measured, relerr, status)
		}
	}
	return b.String()
}

func escapePipes(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
