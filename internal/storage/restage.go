package storage

import (
	"math"

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
