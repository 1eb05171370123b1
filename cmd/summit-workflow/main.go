// Command summit-workflow runs the §V AI-coordinated workflow case
// studies: the materials active-learning loop (Liu et al.), the
// multi-facility biology campaign (Trifan et al.), and the drug-lead
// discovery loop (Saadi et al.).
//
// Usage:
//
//	summit-workflow                   # all three
//	summit-workflow -case materials   # W1
//	summit-workflow -case biology     # W2
//	summit-workflow -case drug        # W3
//	summit-workflow -case biology -trace w2.json -metrics
package main

import (
	"flag"
	"fmt"
	"os"

	"summitscale/internal/core"
	"summitscale/internal/obs"
)

func main() {
	which := flag.String("case", "", "materials | biology | drug; empty = all")
	traceOut := flag.String("trace", "", "write the campaign timeline as Chrome trace-event JSON to this file (one track per facility)")
	metrics := flag.Bool("metrics", false, "print the obs metrics summary after the report")
	flag.Parse()

	ids := map[string]string{"materials": "W1", "biology": "W2", "drug": "W3"}
	var run []string
	if *which == "" {
		run = []string{"W1", "W2", "W3"}
	} else {
		id, ok := ids[*which]
		if !ok {
			fmt.Fprintf(os.Stderr, "summit-workflow: unknown case %q\n", *which)
			os.Exit(2)
		}
		run = []string{id}
	}
	var ob *obs.Observer
	if *traceOut != "" || *metrics {
		ob = obs.New()
	}
	for _, id := range run {
		e, _ := core.ByID(id)
		fmt.Print(core.RenderResult(e, e.Body(nil, ob)))
		fmt.Println()
	}
	if *traceOut != "" {
		if err := ob.WriteChromeTrace(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "summit-workflow: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("summit-workflow: wrote trace to %s\n", *traceOut)
	}
	if *metrics {
		fmt.Print(ob.Trace.Summary())
		fmt.Print(ob.Metrics.Render())
	}
}
