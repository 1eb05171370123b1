package storage

import (
	"math/rand"
	"testing"

	"summitscale/internal/obs"
	"summitscale/internal/units"
)

func TestStagingWithNoFailuresMatchesBase(t *testing.T) {
	s := NewStager()
	d := units.Bytes(100 * units.TB)
	base := s.StagingTime(d, 1024, PartitionDataset)
	if got := s.StagingTimeWithFailures(d, 1024, PartitionDataset, nil, nil); got != base {
		t.Fatalf("failure-free staging %v != base %v", got, base)
	}
}

func TestFailureDuringStagingDelaysCompletion(t *testing.T) {
	s := NewStager()
	d := units.Bytes(100 * units.TB)
	const nodes = 1024
	base := s.StagingTime(d, nodes, PartitionDataset)
	mid := base / 2
	got := s.StagingTimeWithFailures(d, nodes, PartitionDataset, []units.Seconds{mid}, nil)
	if got <= base {
		t.Fatalf("mid-stage failure did not delay completion: %v vs %v", got, base)
	}
	if want := mid + s.ReStageTime(d, nodes, PartitionDataset); got != want {
		t.Fatalf("completion %v, want failure+restage %v", got, want)
	}
}

func TestFailureAfterStagingIgnored(t *testing.T) {
	s := NewStager()
	d := units.Bytes(100 * units.TB)
	base := s.StagingTime(d, 1024, PartitionDataset)
	got := s.StagingTimeWithFailures(d, 1024, PartitionDataset, []units.Seconds{base + 1}, nil)
	if got != base {
		t.Fatalf("post-stage failure changed completion: %v vs %v", got, base)
	}
}

func TestEarlyFailureHiddenUnderRemainingStage(t *testing.T) {
	s := NewStager()
	// Large node count: per-node share is tiny, so a re-stage beginning
	// at t=0+ finishes well before the aggregate-GPFS-bound completion.
	d := units.Bytes(500 * units.TB)
	const nodes = 4096
	base := s.StagingTime(d, nodes, PartitionDataset)
	if re := s.ReStageTime(d, nodes, PartitionDataset); re >= base {
		t.Skipf("re-stage %v not hidden by base %v on this shape", re, base)
	}
	got := s.StagingTimeWithFailures(d, nodes, PartitionDataset, []units.Seconds{0}, nil)
	if got != base {
		t.Fatalf("hidden re-stage still delayed completion: %v vs %v", got, base)
	}
}

// TestShuffledFailuresOrderIndependent is the regression test for the
// order-dependence bug: completion grows monotonically while failures are
// admitted, so processing an early failure late could re-admit it. The
// result must match ascending order for any input permutation.
func TestShuffledFailuresOrderIndependent(t *testing.T) {
	s := NewStager()
	d := units.Bytes(100 * units.TB)
	const nodes = 1024
	base := s.StagingTime(d, nodes, PartitionDataset)
	// A mix of failures before, straddling, and after the stretched
	// completion — the shape where order used to change the answer.
	asc := []units.Seconds{base / 4, base / 2, base - 1, base + base/2, 2 * base}
	want := s.StagingTimeWithFailures(d, nodes, PartitionDataset, asc, nil)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]units.Seconds(nil), asc...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := s.StagingTimeWithFailures(d, nodes, PartitionDataset, shuffled, nil); got != want {
			t.Fatalf("order %v gave %v, ascending gave %v", shuffled, got, want)
		}
	}
	// The input slice itself must not be reordered (sort works on a copy).
	rev := []units.Seconds{base / 2, base / 4}
	s.StagingTimeWithFailures(d, nodes, PartitionDataset, rev, nil)
	if rev[0] != base/2 || rev[1] != base/4 {
		t.Fatalf("input slice was mutated: %v", rev)
	}
}

// TestObservedStagingEmitsSpans: with an observer, staging reports the
// stage-in span plus one re-stage span per admitted failure, and returns
// the same completion as without one.
func TestObservedStagingEmitsSpans(t *testing.T) {
	s := NewStager()
	d := units.Bytes(100 * units.TB)
	const nodes = 1024
	base := s.StagingTime(d, nodes, PartitionDataset)
	ob := obs.New()
	got := s.StagingTimeWithFailures(d, nodes, PartitionDataset,
		[]units.Seconds{base / 2, 10 * base}, ob)
	if want := s.StagingTimeWithFailures(d, nodes, PartitionDataset,
		[]units.Seconds{base / 2, 10 * base}, nil); got != want {
		t.Fatalf("observed result %v != unobserved %v", got, want)
	}
	if ob.Metrics.Counter("storage.restage.count") != 1 {
		t.Fatalf("restage count = %d, want 1 (post-completion failure ignored)",
			ob.Metrics.Counter("storage.restage.count"))
	}
	// stage-in span + failure event + re-stage span.
	if ob.Trace.Len() != 3 {
		t.Fatalf("trace records = %d, want 3", ob.Trace.Len())
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
