package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"summitscale/internal/core"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// repro: the full paper reproduction as users run it. Each op is one
// summit-repro invocation at -j nproc in a process of its own.
//
// Why a cold process per op: summit-repro is a command people launch, and
// its DAG engine memoises shared sub-results per process; one process per
// op keeps any cache from outliving an op, so every op pays for the whole
// study. The op has coarse DAG parallelism over 29 experiments. About a
// third of it is serve/des/surrogate work in experiment S6 (batched,
// unbatched and serving-storm replays); the rest is faults, chaos, ddl
// SDC recovery, mc, sched and trust. No packed GEMM and no multi-rank
// collective runs.
//
// The study's inputs are the paper's fixed configurations, pinned by the
// goldens; the seed is recorded but does not change the report.
const (
	// reproSetupLaunches single-experiment invocations precede the first
	// op.
	reproSetupLaunches = 5
	// reproSetupExperiment runs in well under a millisecond, so its
	// launch time is summit-repro's own start-up.
	reproSetupExperiment = "T1"
	// reproFlatPasses in-process passes over the registry give the
	// per-experiment medians of a traced run.
	reproFlatPasses = 3
	// reproOpTimeout bounds one op; a hung child is killed and fails.
	reproOpTimeout = 60 * time.Second
	reproOK        = "summit-repro: all experiments within tolerance"
)

// reproNamed are the experiments a traced run reports one by one: the
// slowest ones, S6 for the serving layers, and RS2 and S7; the rest are
// summed into core.rest_ms.
var reproNamed = []string{"S6", "RS1", "RS2", "RS3", "RS5", "W1", "W3", "B1", "V1", "S7"}

// child is one finished summit-repro process.
type child struct {
	stdout []byte
	wall   time.Duration
	maxRSS float64 // MB
	err    error
}

func launch(bin string, args ...string) child {
	ctx, cancel := context.WithTimeout(context.Background(), reproOpTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	// The children pin the GEMM panel depth like the benchmark does.
	cmd.Env = append(os.Environ(), tensor.GemmKCEnv+"=256")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t := time.Now()
	err := cmd.Run()
	c := child{stdout: out.Bytes(), wall: time.Since(t), err: err}
	if err != nil && errOut.Len() > 0 {
		c.err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	return c
}

// checkReport is a repro op's correctness gate: the process exited 0, its
// last line says every experiment is within tolerance, and its stdout is
// byte-identical to the run's reference report (nil for the first op).
func checkReport(c child, ref []byte) error {
	if c.err != nil {
		return c.err
	}
	lines := bytes.Split(bytes.TrimRight(c.stdout, "\n"), []byte("\n"))
	if string(lines[len(lines)-1]) != reproOK {
		return fmt.Errorf("last line %q", lines[len(lines)-1])
	}
	if ref != nil && !bytes.Equal(c.stdout, ref) {
		return fmt.Errorf("report differs from the run's first (sha256 %x vs %x)",
			sha256.Sum256(c.stdout), sha256.Sum256(ref))
	}
	return nil
}

// relErrRE matches the relative error column of a report's toleranced
// metrics.
var relErrRE = regexp.MustCompile(`relerr +([0-9.]+)%`)

// meanRelErr is the reproduction's own loss: the mean relative error of
// its toleranced metrics against the paper.
func meanRelErr(report []byte) (float64, error) {
	var errs []float64
	for _, m := range relErrRE.FindAllSubmatch(report, -1) {
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			return 0, err
		}
		errs = append(errs, v/100)
	}
	if len(errs) == 0 {
		return 0, errors.New("report has no toleranced metrics")
	}
	return stats.Mean(errs), nil
}

func runRepro(cfg runConfig) (*outcome, error) {
	if cfg.reproBin == "" {
		return nil, errors.New("repro needs --repro-bin")
	}
	jobs := strconv.Itoa(runtime.NumCPU())
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics

	// Set-up is timed as single-experiment launches: a few before the
	// first op and one after each op, so the median samples the host over
	// the whole run rather than its first tenth of a second.
	var setup []float64
	probe := func() {
		c := launch(cfg.reproBin, "-experiment", reproSetupExperiment)
		if err := checkReport(c, nil); err != nil {
			o.fail("set-up launch: %v", err)
			return
		}
		setup = append(setup, c.wall.Seconds())
	}
	for i := 0; i < reproSetupLaunches; i++ {
		probe()
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		o.tracer = tr
	}
	var ref []byte
	var opMs, rss []float64
	var modeWall [2]time.Duration
	var modeOps [2]int
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for op := 0; op == 0 || time.Since(start) < deadline; op++ {
		mode := 0
		if tr != nil {
			tr.on, tr.op = tracedBlock(op, 1), op
			if tr.on {
				mode = 1
			}
		}
		i := tr.begin("op")
		c := launch(cfg.reproBin, "-j", jobs)
		tr.end(i)
		o.attempted++
		probe()
		if err := checkReport(c, ref); err != nil {
			o.failed++
			fmt.Printf("perfbench: op %d failed: %v\n", op, err)
			continue
		}
		if ref == nil {
			ref = c.stdout
		}
		opMs = append(opMs, ms(c.wall))
		rss = append(rss, c.maxRSS)
		modeWall[mode] += c.wall
		modeOps[mode]++
	}
	wall := time.Since(start)
	if ref == nil || len(setup) == 0 {
		return nil, errors.New("no repro op or set-up launch succeeded")
	}
	loss, err := meanRelErr(ref)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setup)
	m["items_per_s"] = medianOpRate(1, opMs)
	m["op_ms_p50"] = median(opMs)
	m["peak_rss_mb"] = median(rss)
	m["loss_final"] = loss
	fmt.Printf("perfbench: %d repro ops at -j %s; op_ms p50 %.1f (n=%d); whole-phase rate %.4f items/s; report sha256 %x\n",
		o.attempted, jobs, m["op_ms_p50"], len(opMs), itemsPerSecond(len(opMs), wall), sha256.Sum256(ref))

	if tr != nil {
		if modeOps[0] > 0 && modeOps[1] > 0 {
			m["trace.items_per_s"] = itemsPerSecond(modeOps[1], modeWall[1])
			m["trace.untraced_items_per_s"] = itemsPerSecond(modeOps[0], modeWall[0])
			m["trace.overhead_frac"] = 1 - m["trace.items_per_s"]/m["trace.untraced_items_per_s"]
		}
		if err := reproLayers(tr, m, ref, runtime.NumCPU()); err != nil {
			o.fail("%v", err)
		}
	}
	return o, nil
}

// reproLayers times the study in process: one cold DAG run, as the op
// runs it, then reproFlatPasses passes running each experiment alone.
// The DAG run's report must equal the child's.
func reproLayers(tr *tracer, m map[string]float64, ref []byte, workers int) error {
	tr.on, tr.op = true, -1
	defer func() { tr.on = false }()

	a := readRuntime()
	i := tr.begin("core.dag")
	t := time.Now()
	report, pass := core.NewEngine().RunAllParallel(workers)
	m["core.dag_ms"] = ms(time.Since(t))
	tr.end(i)
	runtimePerItem(m, a, readRuntime(), 1)
	if want := string(ref); !pass || report+reproOK+"\n" != want {
		return errors.New("in-process DAG report differs from summit-repro's")
	}

	exps := core.Experiments()
	perExp := make(map[string][]float64, len(exps))
	for pass := 0; pass < reproFlatPasses; pass++ {
		tr.op = pass
		p := tr.begin("core.flat")
		for _, e := range exps {
			s := tr.begin("core." + e.ID)
			t := time.Now()
			r := e.Run()
			perExp[e.ID] = append(perExp[e.ID], ms(time.Since(t)))
			tr.end(s)
			if !r.Pass() {
				return fmt.Errorf("experiment %s deviates when run alone", e.ID)
			}
		}
		tr.end(p)
	}
	named := map[string]bool{}
	for _, id := range reproNamed {
		named[id] = true
	}
	var sum, rest float64
	for _, e := range exps {
		v := median(perExp[e.ID])
		sum += v
		if named[e.ID] {
			m["core."+e.ID+"_ms"] = v
		} else {
			rest += v
		}
	}
	m["core.rest_ms"] = rest
	m["core.flat_sum_ms"] = sum
	return nil
}
