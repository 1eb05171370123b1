// Package sched simulates Summit's batch scheduling of allocation-program
// workloads (§II-B): jobs from INCITE, ALCC and DD compete for the
// machine's 4608 nodes under FIFO-with-backfill scheduling, capability
// priority (bigger jobs first, as leadership-class policy prefers), and
// per-program share accounting. It supplies the machine-utilization
// context in which the paper's AI training jobs ran.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"summitscale/internal/stats"
)

// Job is one batch job.
type Job struct {
	ID       int
	Program  string
	Nodes    int
	Walltime float64 // requested, seconds
	Submit   float64 // submission time

	// Scheduling results.
	Start float64
	End   float64
}

// NodeHours returns the job's node-seconds / 3600.
func (j Job) NodeHours() float64 { return float64(j.Nodes) * j.Walltime / 3600 }

// Wait returns the queue wait.
func (j Job) Wait() float64 { return j.Start - j.Submit }

// Scheduler is an event-free list scheduler over a fixed node pool: FIFO
// by submission with conservative backfill (a later job may start early
// only if it cannot delay any earlier job's reserved start).
type Scheduler struct {
	TotalNodes int
	// CapabilityBoost sorts equal-submit-time jobs larger-first, the
	// leadership-computing queue policy.
	CapabilityBoost bool
}

// NewScheduler creates a scheduler for a machine of the given size.
func NewScheduler(totalNodes int) *Scheduler {
	if totalNodes <= 0 {
		panic("sched: non-positive machine size")
	}
	return &Scheduler{TotalNodes: totalNodes, CapabilityBoost: true}
}

// Schedule assigns Start/End to every job and returns them sorted by
// start time. The algorithm processes jobs in queue order, placing each
// at the earliest time enough nodes are free given already-placed jobs;
// because placement is earliest-fit against the full timeline, this is
// conservative backfill.
func (s *Scheduler) Schedule(jobs []Job) []Job {
	queue := append([]Job(nil), jobs...)
	sort.SliceStable(queue, func(i, j int) bool {
		if queue[i].Submit != queue[j].Submit {
			return queue[i].Submit < queue[j].Submit
		}
		if s.CapabilityBoost && queue[i].Nodes != queue[j].Nodes {
			return queue[i].Nodes > queue[j].Nodes
		}
		return queue[i].ID < queue[j].ID
	})

	var prof profile
	placed := make([]Job, 0, len(queue))
	for _, j := range queue {
		if j.Nodes > s.TotalNodes {
			panic(fmt.Sprintf("sched: job %d wants %d of %d nodes", j.ID, j.Nodes, s.TotalNodes))
		}
		j.Start = prof.earliestStart(j, s.TotalNodes)
		j.End = j.Start + j.Walltime
		prof.add(j)
		placed = append(placed, j)
	}
	sort.SliceStable(placed, func(i, j int) bool { return placed[i].Start < placed[j].Start })
	return placed
}

// profile is the node usage of the placed jobs as a step function: one
// step at every distinct job start or end time, in time order, each
// holding the usage from its time up to the next step's.
type profile []step

type step struct {
	at         float64
	used       int  // nodes busy on [at, next step's at)
	start, end bool // some placed job starts (ends) at at
}

// earliestStart finds the first time >= j.Submit at which j.Nodes nodes
// are continuously free for j.Walltime. The candidates are j.Submit and
// every placed job's end after it, in time order. A candidate t fits when
// usage plus j.Nodes stays within total at t and at every job start in
// (t, t+Walltime): usage only rises at starts, so those points bound the
// window. A conflict at point c also rules out every candidate in (t, c],
// whose windows hold c too, so the search resumes at the first end after
// c.
func (p profile) earliestStart(j Job, total int) float64 {
	t := j.Submit
	next := p.after(t)
	for {
		c, ok := p.conflict(t, j, total)
		if !ok {
			return t
		}
		for next < len(p) && (p[next].at <= c || !p[next].end) {
			next++
		}
		if next == len(p) {
			// Unreachable: once every placed job has ended, usage is zero.
			panic("sched: no feasible start")
		}
		t = p[next].at
	}
}

// conflict returns the first point of j's window starting at t where j
// would push usage over total, checking t and every job start inside the
// window.
func (p profile) conflict(t float64, j Job, total int) (float64, bool) {
	i := p.after(t)
	used := 0
	if i > 0 {
		used = p[i-1].used
	}
	if used+j.Nodes > total {
		return t, true
	}
	for end := t + j.Walltime; i < len(p) && p[i].at < end; i++ {
		if p[i].start && p[i].used+j.Nodes > total {
			return p[i].at, true
		}
	}
	return 0, false
}

// after returns the index of the first step later than t.
func (p profile) after(t float64) int {
	return sort.Search(len(p), func(i int) bool { return p[i].at > t })
}

// add places j: it marks j's start and end steps and adds j.Nodes to the
// usage of every step in [j.Start, j.End).
func (p *profile) add(j Job) {
	a := p.stepAt(j.Start)
	(*p)[a].start = true
	b := p.stepAt(j.End)
	(*p)[b].end = true
	for k := a; k < b; k++ {
		(*p)[k].used += j.Nodes
	}
}

// stepAt returns the index of the step at time t, inserting one that
// carries the usage already in force at t when there is none.
func (p *profile) stepAt(t float64) int {
	q := *p
	i := sort.Search(len(q), func(i int) bool { return q[i].at >= t })
	if i < len(q) && q[i].at == t {
		return i
	}
	st := step{at: t}
	if i > 0 {
		st.used = q[i-1].used
	}
	*p = slices.Insert(q, i, st)
	return i
}

// Stats summarizes a schedule.
type Stats struct {
	Makespan float64 // latest job end
	// FirstStart is the earliest job start: the beginning of the window
	// the machine is actually in use.
	FirstStart float64
	// Utilization is node-time used / (TotalNodes * (Makespan -
	// FirstStart)). Measuring the denominator from the first start rather
	// than from t=0 keeps the metric meaningful for campaigns whose first
	// job submits late: idle time before any job exists is not the
	// scheduler's to waste.
	Utilization  float64
	MeanWait     float64
	MaxWait      float64
	HoursByGroup map[string]float64 // node-hours per program
}

// Span returns the busy window the utilization is measured over.
func (st Stats) Span() float64 { return st.Makespan - st.FirstStart }

// Summarize computes schedule statistics.
func (s *Scheduler) Summarize(placed []Job) Stats {
	st := Stats{HoursByGroup: map[string]float64{}}
	if len(placed) == 0 {
		return st
	}
	var usedNodeTime, waitSum float64
	st.FirstStart = placed[0].Start
	for _, j := range placed {
		if j.End > st.Makespan {
			st.Makespan = j.End
		}
		if j.Start < st.FirstStart {
			st.FirstStart = j.Start
		}
		usedNodeTime += float64(j.Nodes) * j.Walltime
		w := j.Wait()
		waitSum += w
		if w > st.MaxWait {
			st.MaxWait = w
		}
		st.HoursByGroup[j.Program] += j.NodeHours()
	}
	st.MeanWait = waitSum / float64(len(placed))
	if span := st.Span(); span > 0 {
		st.Utilization = usedNodeTime / (float64(s.TotalNodes) * span)
	}
	return st
}

// ProgramShare describes an allocation program's target fraction and job
// profile for workload synthesis.
type ProgramShare struct {
	Name string
	// Share of total node-hours (INCITE ~0.6, ALCC ~0.2, DD ~0.2).
	Share float64
	// Node-count distribution: log-uniform between MinNodes and MaxNodes.
	MinNodes, MaxNodes int
	// MeanWalltime of exponentially distributed walltimes (seconds).
	MeanWalltime float64
}

// OLCFShares returns the paper's §II-B allocation split with
// leadership-scale INCITE jobs, mid-scale ALCC, and small DD jobs.
func OLCFShares() []ProgramShare {
	return []ProgramShare{
		{Name: "INCITE", Share: 0.60, MinNodes: 256, MaxNodes: 4608, MeanWalltime: 6 * 3600},
		{Name: "ALCC", Share: 0.20, MinNodes: 64, MaxNodes: 1024, MeanWalltime: 4 * 3600},
		{Name: "DD", Share: 0.20, MinNodes: 1, MaxNodes: 256, MeanWalltime: 2 * 3600},
	}
}

// SynthesizeWorkload draws jobs matching the program shares over a
// submission horizon, stopping when each program's node-hour budget
// (share × totalNodeHours) is filled.
func SynthesizeWorkload(rng *stats.RNG, shares []ProgramShare, totalNodeHours, horizon float64) []Job {
	var jobs []Job
	id := 0
	for _, ps := range shares {
		budget := ps.Share * totalNodeHours
		var used float64
		for used < budget {
			nodes := logUniformInt(rng, ps.MinNodes, ps.MaxNodes)
			wall := rng.ExpFloat64() * ps.MeanWalltime
			if wall < 600 {
				wall = 600
			}
			j := Job{
				ID: id, Program: ps.Name, Nodes: nodes, Walltime: wall,
				Submit: rng.Float64() * horizon,
			}
			id++
			used += j.NodeHours()
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// logUniformInt draws log-uniformly in [lo, hi].
func logUniformInt(rng *stats.RNG, lo, hi int) int {
	if lo >= hi {
		return lo
	}
	bits := 0
	for v := hi / lo; v > 0; v >>= 1 {
		bits++
	}
	n := lo << rng.Intn(bits)
	if n > hi {
		n = hi
	}
	return n
}
