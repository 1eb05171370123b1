// Command summit-bench converts `go test -bench -benchmem` output read
// from stdin into a stable JSON document, one record per benchmark line.
// It exists so `make bench-json` can commit hot-path numbers
// (BENCH_hotpath.json) in a form diffs and dashboards can consume.
//
// With -check it instead compares the fresh stream against a committed
// baseline JSON and exits nonzero when a hot path regresses beyond ±30%
// in ns/op or allocs/op (`make bench-check`). With -floors it evaluates
// only the within-run kernel floor rules — no baseline, so it runs on
// any machine (`make bench-floors`, CI's perf-smoke job).
//
// Usage:
//
//	go test -run '^$' -bench 'RunAll|MDForces|TrainStepAlloc|ObsHotPath' -benchmem ./... | summit-bench
//	go test -run '^$' -bench '...' -benchmem ./... | summit-bench -check BENCH_hotpath.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// document is the emitted JSON root. Gomaxprocs records the worker
// budget the run was measured at: parallel-kernel numbers from different
// core counts are not comparable, so -check refuses mismatched documents
// outright instead of reporting bogus regressions.
type document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Gomaxprocs int      `json:"gomaxprocs,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, reads the benchmark stream
// from stdin, writes the JSON document (or the -check/-floors report) to
// stdout and diagnostics to stderr, and returns the exit code: 1 for an
// empty or unreadable stream, a regression or a breached floor.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summit-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.String("check", "", "baseline JSON to diff the fresh results against; exit 1 on regression")
	floors := fs.Bool("floors", false, "evaluate only the within-run kernel floor rules (no baseline); exit 1 on breach")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	doc, err := parse(bufio.NewScanner(stdin))
	if err != nil {
		fmt.Fprintln(stderr, "summit-bench:", err)
		return 1
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "summit-bench: no benchmark lines on stdin")
		return 1
	}
	if *floors {
		return runFloors(doc, stdout, stderr)
	}
	if *check != "" {
		return runCheck(*check, doc, stdout, stderr)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "summit-bench:", err)
		return 1
	}
	return 0
}

// parse consumes the benchmark stream. Header lines (goos/goarch/cpu/pkg)
// set context; `BenchmarkX  N  v unit  v unit ...` lines become records;
// everything else (PASS, ok, logs) is ignored.
func parse(sc *bufio.Scanner) (*document, error) {
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	doc := &document{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a log line that happens to start with "Benchmark"
		}
		// `go test` suffixes every benchmark name with "-GOMAXPROCS" when
		// it differs from 1. Strip the suffix into the document header so
		// names compare across machines and the core count is recorded
		// exactly once. (No current sub-benchmark name ends in "-<int>",
		// so the heuristic cannot misfire on this suite.)
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
				name = name[:i]
				if n > doc.Gomaxprocs {
					doc.Gomaxprocs = n
				}
			}
		}
		r := result{Name: name, Package: pkg, Iterations: iters}
		// The remainder is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			case "MB/s":
				r.MBPerS = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if doc.Gomaxprocs == 0 {
		doc.Gomaxprocs = 1 // go test omits the suffix at GOMAXPROCS=1
	}
	return doc, sc.Err()
}
