// Package perf models the step time, throughput, sustained FLOP rate, and
// weak-scaling efficiency of distributed training jobs on Summit-class
// machines. It combines the compute, communication (internal/netsim), and
// storage (internal/storage) models into the scaling curves of the paper's
// §IV-B case studies.
//
// The step model for synchronous data parallelism with per-device batch b:
//
//	compute  = accum · b / singleGPUThroughput
//	comm     = intra-node NVLink reduce + inter-node ring allreduce(gradBytes)
//	io       = step input bytes / achievable store bandwidth
//	jitter   = 1 + jitterPerDoubling · log2(nodes)   (stragglers, OS noise)
//	step     = [max(compute, io) + exposedComm + fixedOverhead] · jitter
//
// where exposedComm is (1-overlap)·comm, or max(0, comm - compute) when a
// one-step gradient lag fully pipelines communication (Kurth et al.).
package perf

import (
	"fmt"
	"math"

	"summitscale/internal/machine"
	"summitscale/internal/models"
	"summitscale/internal/netsim"
	"summitscale/internal/storage"
	"summitscale/internal/units"
)

// Job describes a training configuration to analyze.
type Job struct {
	Model       models.ModelSpec
	Nodes       int
	GPUsPerNode int

	// Store is the input path; nil means in-memory (no I/O term).
	Store storage.Store
	// Fabric provides the communication cost model.
	Fabric netsim.Fabric
	// NVLinkBW is the intra-node reduction bandwidth per GPU pair.
	NVLinkBW units.BytesPerSecond

	// AccumSteps is the number of micro-batches per allreduce.
	AccumSteps int
	// ModelParallelWays shards each replica across this many nodes,
	// reducing the data-parallel ring size (Yang et al.).
	ModelParallelWays int
	// OverlapComm in [0,1] is the fraction of allreduce hidden beneath
	// backpropagation.
	OverlapComm float64
	// GradLag applies the one-step gradient staleness of Kurth et al.,
	// which hides communication up to the full compute time.
	GradLag bool
	// JitterPerDoubling adds straggler/OS-noise step inflation per
	// doubling of node count (typically 0.005–0.01 on Summit).
	JitterPerDoubling float64
	// FixedOverhead is per-step time independent of scale (optimizer CPU
	// work, kernel launches, amortized checkpointing).
	FixedOverhead units.Seconds
}

// JobOn fills machine defaults for a job on the given system: GPUs per
// node, inter-node fabric, and intra-node NVLink bandwidth.
func JobOn(mach machine.Machine, m models.ModelSpec, nodes int) Job {
	return Job{
		Model:       m,
		Nodes:       nodes,
		GPUsPerNode: mach.Node.GPUs,
		Fabric:      netsim.FabricFor(mach),
		NVLinkBW:    mach.Node.NVLinkBW,
		AccumSteps:  1,
	}
}

// SummitJob fills machine defaults for a job on Summit.
func SummitJob(m models.ModelSpec, nodes int) Job {
	return JobOn(machine.Summit(), m, nodes)
}

// Breakdown itemizes one step's time.
type Breakdown struct {
	Compute     units.Seconds
	IO          units.Seconds
	Comm        units.Seconds // full allreduce time
	ExposedComm units.Seconds // portion not hidden by compute
	Jitter      float64
	Total       units.Seconds
}

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("compute=%v io=%v comm=%v exposed=%v jitter=%.3f total=%v",
		b.Compute, b.IO, b.Comm, b.ExposedComm, b.Jitter, b.Total)
}

// Analyze computes the step breakdown for a job.
func Analyze(j Job) Breakdown {
	if j.GPUsPerNode <= 0 {
		j.GPUsPerNode = 1
	}
	if j.AccumSteps <= 0 {
		j.AccumSteps = 1
	}
	if j.ModelParallelWays <= 0 {
		j.ModelParallelWays = 1
	}
	devices := j.Nodes * j.GPUsPerNode

	compute := units.Seconds(float64(j.AccumSteps) * float64(j.Model.PerGPUBatch) / j.Model.SingleGPUThroughput)

	// Communication: intra-node NVLink reduce-scatter across the node's
	// GPUs, then an inter-node ring across the data-parallel group.
	grad := j.Model.GradientBytes()
	var comm units.Seconds
	if devices > 1 {
		if j.GPUsPerNode > 1 && j.NVLinkBW > 0 {
			g := float64(j.GPUsPerNode)
			comm += units.Seconds(2 * (g - 1) / g * float64(grad) / float64(j.NVLinkBW))
		}
		dpNodes := j.Nodes / j.ModelParallelWays
		if dpNodes > 1 {
			comm += j.Fabric.RingAllReduce(dpNodes, grad)
		}
	}

	// Input pipeline: all devices' records for this step through the store.
	var io units.Seconds
	if j.Store != nil {
		stepBytes := float64(devices*j.AccumSteps*j.Model.PerGPUBatch) * float64(j.Model.RecordBytes)
		io = units.Seconds(stepBytes / float64(j.Store.ReadBW(j.Nodes)))
	}

	var exposed units.Seconds
	switch {
	case j.GradLag:
		if comm > compute {
			exposed = comm - compute
		}
	default:
		exposed = units.Seconds((1 - j.OverlapComm) * float64(comm))
	}

	jitter := 1.0
	if j.JitterPerDoubling > 0 && j.Nodes > 1 {
		jitter = 1 + j.JitterPerDoubling*math.Log2(float64(j.Nodes))
	}

	base := compute
	if io > base {
		base = io
	}
	total := units.Seconds((float64(base) + float64(exposed) + float64(j.FixedOverhead)) * jitter)
	return Breakdown{Compute: compute, IO: io, Comm: comm, ExposedComm: exposed, Jitter: jitter, Total: total}
}

// Throughput returns global samples/s for the job.
func Throughput(j Job) float64 {
	b := Analyze(j)
	devices := j.Nodes * max(1, j.GPUsPerNode)
	accum := max(1, j.AccumSteps)
	samples := float64(devices * accum * j.Model.PerGPUBatch)
	return samples / float64(b.Total)
}

// SustainedFlops returns the aggregate sustained rate.
func SustainedFlops(j Job) units.FlopsPerSecond {
	return units.FlopsPerSecond(Throughput(j) * float64(j.Model.TrainFlopsPerSample))
}

// Point is one entry of a scaling curve.
type Point struct {
	Nodes      int
	Throughput float64 // samples/s
	Flops      units.FlopsPerSecond
	Efficiency float64 // per-device throughput vs the base point
	Step       Breakdown
}

// ScalingCurve evaluates the job over node counts (weak scaling: per-GPU
// batch fixed). Efficiency is relative to the first entry.
func ScalingCurve(j Job, nodes []int) []Point {
	if len(nodes) == 0 {
		panic("perf: empty node list")
	}
	pts := make([]Point, len(nodes))
	var basePerDev float64
	for i, n := range nodes {
		jn := j
		jn.Nodes = n
		th := Throughput(jn)
		perDev := th / float64(n*max(1, j.GPUsPerNode))
		if i == 0 {
			basePerDev = perDev
		}
		pts[i] = Point{
			Nodes:      n,
			Throughput: th,
			Flops:      SustainedFlops(jn),
			Efficiency: perDev / basePerDev,
			Step:       Analyze(jn),
		}
	}
	return pts
}

// ParallelEfficiency returns the weak-scaling efficiency between two node
// counts for the job.
func ParallelEfficiency(j Job, baseNodes, atNodes int) float64 {
	pts := ScalingCurve(j, []int{baseNodes, atNodes})
	return pts[1].Efficiency
}
