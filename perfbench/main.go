// Command perfbench is SummitScale's end-to-end benchmark. One invocation
// runs one workload, checks every op's output, and prints its metrics as a
// single JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload train-cnn --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package and cmd/summit-repro from the sources of the
// checkout it runs in and keeps every build and run artefact under
// .bench_build/ there.
//
// With --trace 0 the run reports the end-to-end metrics a user sees. With
// --trace 1 it runs the same workload with spans around the calls the
// benchmark makes into each layer, alternating traced and untraced blocks
// of ops, and reports per-layer metrics, a per-layer self-time table and
// the tracing overhead. The spans are written to
// .bench_build/work/<workload>/spans.json when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"summitscale/internal/tensor"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // this workload's working directory, emptied per run
	reproBin string // the summit-repro binary built from this checkout
}

// outcome is a workload's verdict and measurements.
type outcome struct {
	attempted, failed int
	// checks lists the end-of-run checks that failed; any entry makes the
	// run incorrect.
	checks  []string
	metrics map[string]float64
	tracer  *tracer // spans of a --trace 1 run
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs. The reason for each
// lives next to its run function: trainCNN and trainWide in train.go,
// runRepro in repro.go.
//
// There is no serving workload: summit-serve's layers (serve, des,
// surrogate) make up about a third of repro's wall time through
// experiment S6, so a serve-layer change already shows on repro; the
// change that optimises serving first adds a workload of its own.
//
// Deliberately unmeasured: internal/md (only examples/multiscale imports
// it) and MiniBERT attention (one four-sequence step at Dim 256 takes
// about 0.8 s and 274 MB, too coarse for a steady per-op figure).
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"train-cnn", trainCNN},
	{"train-wide", trainWide},
	{"repro", runRepro},
}

// metricDef names one metric and its unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are printed by every --trace 0 run, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
	{"loss_final", "1"},
}

// perLayer are printed by every --trace 1 run. A layer the workload does
// not exercise reads 0: no time was spent in it.
var perLayer = []metricDef{
	{"nn.forward_ms", "ms"},
	{"ddl.step_self_ms", "ms"},
	{"tensor.gemm_gflop", "GFLOP"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"mp.allreduce_ms", "ms"},
	{"mp.allreduce_bytes", "B"},
	{"mp.messages", "count"},
	{"data.batch_ms", "ms"},
	{"optim.step_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.drain_wait_ms", "ms"},
	{"checkpoint.mb_per_commit", "MB"},
	{"checkpoint.restore_ms", "ms"},
	{"core.S6_ms", "ms"},
	{"core.RS1_ms", "ms"},
	{"core.RS2_ms", "ms"},
	{"core.RS3_ms", "ms"},
	{"core.RS5_ms", "ms"},
	{"core.W1_ms", "ms"},
	{"core.W3_ms", "ms"},
	{"core.B1_ms", "ms"},
	{"core.V1_ms", "ms"},
	{"core.S7_ms", "ms"},
	{"core.rest_ms", "ms"},
	{"core.flat_sum_ms", "ms"},
	{"core.dag_ms", "ms"},
	{"runtime.mallocs_per_item", "count"},
	{"runtime.alloc_kb_per_item", "KB"},
	{"runtime.gc_cycles_per_item", "count"},
	{"runtime.gc_cpu_frac", "1"},
	{"runtime.cpu_ms_per_item", "ms"},
	{"trace.items_per_s", "1/s"},
	{"trace.untraced_items_per_s", "1/s"},
	{"trace.overhead_frac", "1"},
	{"trace.unaccounted_frac", "1"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics a run prints. Every end-to-end metric
// must have been measured; a missing one is a benchmark bug.
func buildResult(o *outcome, trace bool) (result, error) {
	defs, required := endToEnd, true
	if trace {
		defs, required = perLayer, false
	}
	res := result{
		Correct:   o.failed == 0 && len(o.checks) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if len(o.checks) > 0 && res.Failed < res.Attempted {
		// An end-of-run check covers the whole run; charge it to the
		// last op so failed never exceeds attempted.
		res.Failed++
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && required {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: train-cnn, train-wide or repro")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	reproBin := flag.String("repro-bin", "", "summit-repro binary for the repro workload")
	workdir := flag.String("workdir", ".bench_build/work", "directory for checkpoints and spans")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (train-cnn, train-wide, repro), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	// The packed GEMM otherwise picks its panel depth per process with a
	// wall-clock autotune, so two runs could time different kernels.
	tensor.SetGemmKC(256)

	cfg := runConfig{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workdir:  filepath.Join(*workdir, w.name),
		reproBin: *reproBin,
	}
	if err := os.RemoveAll(cfg.workdir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, cfg.seed, cfg.seconds, *trace)
	fmt.Printf("perfbench: %s GOMAXPROCS=%d NumCPU=%d gemm_kc=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), tensor.GemmKC())

	before := readHost()
	start := time.Now()
	o, err := w.run(cfg)
	if err != nil {
		fatal(err)
	}
	after := readHost()
	fmt.Printf("perfbench: wall_s=%.3f cpu_s=%.3f steal_s=%.3f\n",
		time.Since(start).Seconds(), (after.cpu - before.cpu).Seconds(), (after.steal - before.steal).Seconds())
	for _, c := range o.checks {
		fmt.Printf("perfbench: CHECK FAILED: %s\n", c)
	}
	if cfg.trace {
		rows := layerTable(o.tracer.spans)
		if op := layer(rows, "op"); op.total > 0 {
			// The share of the ops' time that no layer span covers.
			o.metrics["trace.unaccounted_frac"] = float64(op.self) / float64(op.total)
		}
		fmt.Print(renderLayerTable(rows))
		path := filepath.Join(cfg.workdir, "spans.json")
		if err := writeSpans(path, o.tracer.spans); err != nil {
			fatal(err)
		}
		fmt.Printf("perfbench: wrote %d spans to %s\n", len(o.tracer.spans), path)
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
