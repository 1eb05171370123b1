package storage

import (
	"testing"

	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// TestObservedStagingEmitsSpans: with an observer, staging reports one
// stage-in span and returns the same completion as StagingTime, with or
// without one.
func TestObservedStagingEmitsSpans(t *testing.T) {
	s := NewStager()
	d := units.Bytes(100 * units.TB)
	const nodes = 1024
	base := s.StagingTime(d, nodes, PartitionDataset)
	ob := obs.New()
	if got := s.ObservedStagingTime(ob, d, nodes, PartitionDataset); got != base {
		t.Fatalf("observed result %v != StagingTime %v", got, base)
	}
	if got := s.ObservedStagingTime(nil, d, nodes, PartitionDataset); got != base {
		t.Fatalf("unobserved result %v != StagingTime %v", got, base)
	}
	if ob.Metrics.Counter("storage.stage_in.count") != 1 {
		t.Fatalf("stage-in count = %d, want 1", ob.Metrics.Counter("storage.stage_in.count"))
	}
	if ob.Trace.Len() != 1 {
		t.Fatalf("trace records = %d, want 1 stage-in span", ob.Trace.Len())
	}
}

func TestReplicateRestageDearerThanPartition(t *testing.T) {
	s := NewStager()
	d := units.Bytes(1 * units.TB) // fits one node's NVMe for replication
	rep := s.ReStageTime(d, 512, ReplicateDataset)
	part := s.ReStageTime(d, 512, PartitionDataset)
	if rep <= part {
		t.Fatalf("replicate re-stage %v not dearer than partition %v", rep, part)
	}
}
