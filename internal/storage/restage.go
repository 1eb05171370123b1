package storage

import (
	"math"
	"sort"

	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// Fault-aware staging: a node failure during (or after) stage-in voids
// that node's burst-buffer contents, and the replacement node must
// rebuild its share from the shared file system before the job can
// proceed — the re-stage tax the §IV-B full-machine runs paid on every
// interrupt.

// ReStageTime returns the time for one replacement node to rebuild its
// node-local data: its share of the dataset re-read from the shared FS as
// a single client and landed on the local drive.
func (s *Stager) ReStageTime(dataset units.Bytes, nodes int, plan StagingPlan) units.Seconds {
	var share float64
	switch plan {
	case ReplicateDataset:
		share = float64(dataset)
	case PartitionDataset:
		share = float64(dataset) / float64(nodes)
	default:
		panic("storage: unknown staging plan")
	}
	read := share / float64(s.GPFS.ReadBW(1))
	land := share / float64(s.NVMe.Node.NVMeWriteBW)
	return units.Seconds(math.Max(read, land))
}

// StagingTimeWithFailures returns when stage-in completes given fatal
// node failures at the given onset times (job-relative; any order — a
// sorted copy is processed). A failure before the current completion
// interrupts that node's copy: the replacement starts its re-stage at the
// failure instant, and overall completion waits for the latest straggling
// copy. Failures after completion do not affect stage-in (their re-stage
// is charged to the restart path instead).
//
// Completion grows monotonically as failures are admitted, so processing
// order changes which failures count as "during stage-in"; ascending order
// is the physical semantics (a failure is admitted iff stage-in — already
// stretched by every earlier failure — is still running when it hits).
//
// A non-nil ob receives one stage-in span plus a re-stage span per
// admitted failure; a nil observer records nothing.
func (s *Stager) StagingTimeWithFailures(dataset units.Bytes, nodes int,
	plan StagingPlan, failures []units.Seconds, ob *obs.Observer) units.Seconds {
	completion := s.ObservedStagingTime(ob, dataset, nodes, plan)
	re := s.ReStageTime(dataset, nodes, plan)
	sorted := append([]units.Seconds(nil), failures...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, f := range sorted {
		if f < completion {
			ob.Inc("storage.restage.count")
			ob.Event("storage", "fault", "node-failure", f)
			ob.Span("storage", "io", "re-stage", f, re)
			if c := f + re; c > completion {
				completion = c
			}
		}
	}
	return completion
}
