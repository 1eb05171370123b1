package bench

import (
	"fmt"
	"sort"
	"strings"

	"summitscale/internal/obs"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/sched"
	"summitscale/internal/units"
)

// Instance is one training job of a campaign: a registered workload at
// a node count, submitted at a campaign-relative time.
type Instance struct {
	Workload string
	Nodes    int
	Submit   float64 // seconds
}

// Campaign is a set of concurrent training instances contending for one
// machine — MLPerf HPC's "all of the machine" throughput mode.
type Campaign struct {
	Name      string
	Seed      uint64
	Instances []Instance
}

// proxyRanks and proxySteps size the reduced-scale real-training run
// each instance executes.
const proxyRanks, proxySteps = 2, 8

// InstanceResult is one instance's closed-division measurement plus its
// placement on the machine.
type InstanceResult struct {
	ID       int
	Workload string
	TTT      TTT
	Proxy    ProxyResult
	// Placement from the scheduler.
	Start, End float64
	Wait       float64
	// Completion is the per-instance campaign latency: End - Submit,
	// queue wait included — what a submitter experiences.
	Completion float64
}

// Report is a campaign's outcome. Its Render is byte-identical at any
// worker count: instance evaluation writes into fixed slots and every
// aggregate is computed from them in ID order.
type Report struct {
	Name      string
	Platform  string
	Seed      uint64
	Instances []InstanceResult
	Sched     sched.Stats
	// MaxConcurrent is the peak number of simultaneously running
	// instances — the "multi-instance" in multi-instance throughput.
	MaxConcurrent int
	// AggThroughput is total samples trained across all instances per
	// second of busy machine span.
	AggThroughput float64
	// AllConverged reports the closed division held: every instance's
	// batch stayed inside the convergence envelope and every proxy run
	// actually reduced its loss.
	AllConverged bool
}

// RunCampaign evaluates every instance (analytic TTT plus the real
// reduced-scale proxy training run) with up to `workers` concurrent
// evaluators, schedules the resulting jobs onto the machine's node pool
// through internal/sched, and aggregates machine-level metrics. The
// report is a pure function of (platform, campaign); workers only
// changes wall time.
func RunCampaign(p platform.Platform, c Campaign, workers int, ob *obs.Observer) (*Report, error) {
	if len(c.Instances) == 0 {
		return nil, fmt.Errorf("bench: campaign %q has no instances", c.Name)
	}
	type eval struct {
		ttt   TTT
		proxy ProxyResult
	}
	workloads := make([]Workload, len(c.Instances))
	for i, inst := range c.Instances {
		w, ok := Lookup(inst.Workload)
		if !ok {
			return nil, fmt.Errorf("bench: campaign %q: unknown workload %q", c.Name, inst.Workload)
		}
		if inst.Nodes < 1 || inst.Nodes > p.Nodes {
			return nil, fmt.Errorf("bench: campaign %q: instance %d wants %d of %d nodes",
				c.Name, i, inst.Nodes, p.Nodes)
		}
		workloads[i] = w
	}

	// Fan the per-instance evaluation out; results land in fixed slots
	// so the fan-out width never reaches the report.
	evals := parallel.MapOrdered(workers, len(c.Instances), func(i int) eval {
		inst := c.Instances[i]
		return eval{
			ttt:   TimeToTrain(p, workloads[i], inst.Nodes),
			proxy: ProxyTrain(workloads[i], c.Seed+uint64(i)*0x9e3779b9, proxyRanks, proxySteps),
		}
	})

	jobs := make([]sched.Job, len(c.Instances))
	for i, inst := range c.Instances {
		jobs[i] = sched.Job{
			ID:       i,
			Program:  inst.Workload,
			Nodes:    inst.Nodes,
			Walltime: float64(evals[i].ttt.Total),
			Submit:   inst.Submit,
		}
	}
	s := sched.NewScheduler(p.Nodes)
	placed := s.Schedule(jobs)
	st := s.Summarize(placed)

	byID := make(map[int]sched.Job, len(placed))
	for _, j := range placed {
		byID[j.ID] = j
	}

	rep := &Report{
		Name:          c.Name,
		Platform:      p.Name,
		Seed:          c.Seed,
		Instances:     make([]InstanceResult, len(c.Instances)),
		Sched:         st,
		MaxConcurrent: maxConcurrent(placed),
		AllConverged:  true,
	}
	var samples float64
	for i := range c.Instances {
		j := byID[i]
		e := evals[i]
		rep.Instances[i] = InstanceResult{
			ID:       i,
			Workload: c.Instances[i].Workload,
			TTT:      e.ttt,
			Proxy:    e.proxy,
			Start:    j.Start, End: j.End,
			Wait:       j.Wait(),
			Completion: j.End - j.Submit,
		}
		samples += e.ttt.Epochs * float64(workloads[i].Samples())
		if !e.ttt.Converged || !e.proxy.Converged {
			rep.AllConverged = false
		}
		ob.Span("campaign", "train", c.Instances[i].Workload,
			units.Seconds(j.Start), units.Seconds(j.End-j.Start),
			obs.Num("instance", float64(i)), obs.Num("nodes", float64(j.Nodes)),
			obs.Num("ttt", float64(e.ttt.Total)))
		ob.Inc("bench.instances")
		if e.ttt.Converged && e.proxy.Converged {
			ob.Inc("bench.converged")
		}
		ob.Observe("bench.instance.completion", j.End-j.Submit)
	}
	if span := st.Span(); span > 0 {
		rep.AggThroughput = samples / span
	}
	ob.Set("bench.campaign.utilization", st.Utilization)
	ob.Set("bench.campaign.max_concurrent", float64(rep.MaxConcurrent))
	ob.Set("bench.campaign.agg_throughput", rep.AggThroughput)
	return rep, nil
}

// maxConcurrent sweeps the placed jobs' start/end events and returns the
// peak overlap; at equal times ends are processed before starts.
func maxConcurrent(placed []sched.Job) int {
	type ev struct {
		t     float64
		delta int
	}
	evs := make([]ev, 0, 2*len(placed))
	for _, j := range placed {
		evs = append(evs, ev{j.Start, +1}, ev{j.End, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].delta < evs[b].delta
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Render formats the campaign deterministically: per-instance rows in
// ID order, then the machine-level summary.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q on %s (seed %d): %d instances\n",
		r.Name, r.Platform, r.Seed, len(r.Instances))
	fmt.Fprintf(&b, "  %2s %-12s %6s %9s %9s %11s %11s %7s %-9s\n",
		"id", "workload", "nodes", "submit", "wait", "TTT", "complete", "div", "proxyloss")
	for _, ir := range r.Instances {
		div := "closed"
		if !ir.TTT.Converged || !ir.Proxy.Converged {
			div = "open"
		}
		fmt.Fprintf(&b, "  %2d %-12s %6d %9.0fs %9.0fs %11v %11v %7s %.4f\n",
			ir.ID, ir.Workload, ir.TTT.Nodes, ir.Start-ir.Wait, ir.Wait,
			ir.TTT.Total, units.Seconds(ir.Completion), div, ir.Proxy.FinalLoss)
	}
	fmt.Fprintf(&b, "  schedule: makespan %v, busy span %v, utilization %.1f%%, max concurrent %d\n",
		units.Seconds(r.Sched.Makespan), units.Seconds(r.Sched.Span()),
		100*r.Sched.Utilization, r.MaxConcurrent)
	fmt.Fprintf(&b, "  aggregate: %.0f samples/s machine throughput, all converged %v\n",
		r.AggThroughput, r.AllConverged)
	return b.String()
}

// ClosedNodes is the largest node count at which the workload's global
// batch (customary per-GPU batch, no accumulation) stays inside the
// closed-division convergence envelope on this machine.
func ClosedNodes(p platform.Platform, w Workload) int {
	if w.MaxGlobalBatch <= 0 {
		return p.Nodes
	}
	gpus := p.Node.GPUs
	if gpus < 1 {
		gpus = 1
	}
	n := w.MaxGlobalBatch / (gpus * w.Model.PerGPUBatch)
	if n < 1 {
		n = 1
	}
	if n > p.Nodes {
		n = p.Nodes
	}
	return n
}

// DefaultCampaign is the mixed suite: two closed-division-scale
// instances of every registered workload, submits staggered five
// minutes apart — the shape of a shared machine's benchmark week.
func DefaultCampaign(p platform.Platform) Campaign {
	var inst []Instance
	for i, w := range Suite() {
		big := min(p.Nodes/8, ClosedNodes(p, w))
		if big < 1 {
			big = 1
		}
		small := big / 2
		if small < 1 {
			small = 1
		}
		inst = append(inst,
			Instance{Workload: w.Name, Nodes: big, Submit: float64(2*i) * 300},
			Instance{Workload: w.Name, Nodes: small, Submit: float64(2*i+1) * 300},
		)
	}
	return Campaign{Name: "mixed-suite", Seed: 1, Instances: inst}
}

// ThroughputCampaign is the multi-instance throughput mode: n identical
// instances of one workload submitted together, each on 1/n of the
// machine (capped at the workload's closed-division scale), so all n
// run concurrently.
func ThroughputCampaign(p platform.Platform, workload string, n int) Campaign {
	if n < 1 {
		n = 1
	}
	nodes := p.Nodes / n
	if w, ok := Lookup(workload); ok {
		nodes = min(nodes, ClosedNodes(p, w))
	}
	if nodes < 1 {
		nodes = 1
	}
	inst := make([]Instance, n)
	for i := range inst {
		inst[i] = Instance{Workload: workload, Nodes: nodes}
	}
	return Campaign{Name: fmt.Sprintf("throughput-%s-x%d", workload, n), Seed: 1, Instances: inst}
}
