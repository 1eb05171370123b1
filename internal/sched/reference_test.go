package sched

import (
	"fmt"
	"sort"
	"testing"

	"summitscale/internal/stats"
)

// referenceSchedule is the direct placement Schedule must reproduce: for
// each job in queue order, try j.Submit and then every placed job's end
// after it, in time order, and take the first candidate at which usage
// plus j.Nodes stays within the machine at the candidate and at every
// placed job's start inside the window, recounting usage from every
// placed job at every point.
func referenceSchedule(s *Scheduler, jobs []Job) []Job {
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
	fits := func(placed []Job, t float64, j Job) bool {
		points := []float64{t}
		for _, p := range placed {
			if p.Start > t && p.Start < t+j.Walltime {
				points = append(points, p.Start)
			}
		}
		for _, pt := range points {
			used := 0
			for _, p := range placed {
				if p.Start <= pt && pt < p.End {
					used += p.Nodes
				}
			}
			if used+j.Nodes > s.TotalNodes {
				return false
			}
		}
		return true
	}
	var placed []Job
	for _, j := range queue {
		candidates := []float64{j.Submit}
		for _, p := range placed {
			if p.End > j.Submit {
				candidates = append(candidates, p.End)
			}
		}
		sort.Float64s(candidates)
		found := false
		for _, t := range candidates {
			if fits(placed, t, j) {
				j.Start, found = t, true
				break
			}
		}
		if !found {
			panic("reference: no feasible start")
		}
		j.End = j.Start + j.Walltime
		placed = append(placed, j)
	}
	sort.SliceStable(placed, func(i, j int) bool { return placed[i].Start < placed[j].Start })
	return placed
}

// sameSchedule fails t unless got and want place every job identically.
func sameSchedule(t *testing.T, label string, got, want []Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs placed, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: job %d placed %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestScheduleMatchesReference is the scheduler's property test: on
// synthesized workloads of every size and shape, plus workloads built on
// a coarse integer clock so that submits, starts and ends collide,
// Schedule returns the reference's Start and End for every job.
func TestScheduleMatchesReference(t *testing.T) {
	rng := stats.NewRNG(16)
	for w := 0; w < 200; w++ {
		total := 16 + rng.Intn(4096)
		var jobs []Job
		if w%2 == 0 {
			shares := OLCFShares()
			for i := range shares {
				shares[i].MaxNodes = min(shares[i].MaxNodes, total)
				shares[i].MinNodes = min(shares[i].MinNodes, shares[i].MaxNodes)
			}
			nodeHours := float64(total) * float64(4+rng.Intn(28))
			jobs = SynthesizeWorkload(rng, shares, nodeHours, float64(3600*(1+rng.Intn(24))))
		} else {
			n := 1 + rng.Intn(120)
			for i := 0; i < n; i++ {
				jobs = append(jobs, Job{
					ID:       i,
					Nodes:    1 + rng.Intn(total),
					Walltime: float64(rng.Intn(8)),
					Submit:   float64(rng.Intn(12)),
				})
			}
		}
		for _, boost := range []bool{true, false} {
			s := &Scheduler{TotalNodes: total, CapabilityBoost: boost}
			sameSchedule(t, fmt.Sprintf("workload %d, boost %v", w, boost), s.Schedule(jobs), referenceSchedule(s, jobs))
		}
	}
}

// TestScheduleMatchesReferenceEdges covers the boundaries of the usage
// profile: every job submitted at once, jobs that fill the machine to the
// last node, a job whose window ends exactly where another starts, and
// zero-length jobs.
func TestScheduleMatchesReferenceEdges(t *testing.T) {
	cases := map[string][]Job{
		"equal submit": {
			{ID: 1, Nodes: 40, Walltime: 10}, {ID: 2, Nodes: 60, Walltime: 5},
			{ID: 3, Nodes: 60, Walltime: 20}, {ID: 4, Nodes: 40, Walltime: 5},
			{ID: 5, Nodes: 100, Walltime: 1}, {ID: 6, Nodes: 1, Walltime: 30},
		},
		"exact fill": {
			{ID: 1, Nodes: 70, Walltime: 10}, {ID: 2, Nodes: 30, Walltime: 10},
			{ID: 3, Nodes: 30, Walltime: 5, Submit: 1}, {ID: 4, Nodes: 100, Walltime: 3, Submit: 2},
			{ID: 5, Nodes: 70, Walltime: 10, Submit: 10},
		},
		"end equals start": {
			{ID: 1, Nodes: 80, Walltime: 10}, {ID: 2, Nodes: 80, Walltime: 10, Submit: 10},
			{ID: 3, Nodes: 30, Walltime: 10, Submit: 1}, {ID: 4, Nodes: 20, Walltime: 9, Submit: 1},
			{ID: 5, Nodes: 20, Walltime: 10, Submit: 2},
		},
		"zero walltime": {
			{ID: 1, Nodes: 100, Walltime: 10}, {ID: 2, Nodes: 100, Walltime: 0, Submit: 10},
			{ID: 3, Nodes: 50, Walltime: 0, Submit: 3}, {ID: 4, Nodes: 100, Walltime: 5, Submit: 10},
		},
	}
	for name, jobs := range cases {
		s := NewScheduler(100)
		sameSchedule(t, name, s.Schedule(jobs), referenceSchedule(s, jobs))
	}
}
