// Package machine describes the OLCF system the paper studies — Summit,
// with its original and high-memory nodes — with the published hardware
// rates that the performance, storage, and network models consume.
//
// All figures come from the paper's §II-A system description and §VI-B
// hardware discussion: 25 GB/s node injection bandwidth, 2.5 TB/s GPFS
// aggregate read bandwidth, ~27 TB/s aggregate node-local NVMe read
// bandwidth, and V100 peak rates including 125 TF/s mixed-precision tensor
// throughput per GPU (over 3 AI-ExaOps across the system).
package machine

import (
	"strings"

	"summitscale/internal/units"
)

// GPU describes an accelerator.
type GPU struct {
	Name string
	// Peak arithmetic rates by precision.
	PeakFP64   units.FlopsPerSecond
	PeakFP32   units.FlopsPerSecond
	PeakTensor units.FlopsPerSecond // mixed-precision tensor cores
	HBM        units.Bytes
	HBMBW      units.BytesPerSecond
}

// Family returns the GPU's family name — the part before the first dash
// ("V100-16GB" -> "V100") — for prose that names the device generation
// rather than one SKU.
func (g GPU) Family() string {
	if i := strings.IndexByte(g.Name, '-'); i > 0 {
		return g.Name[:i]
	}
	return g.Name
}

// V100 is the NVIDIA Tesla V100 (16 GB) in Summit's original nodes.
func V100() GPU {
	return GPU{
		Name:       "V100-16GB",
		PeakFP64:   7.8 * units.TFlops,
		PeakFP32:   15.7 * units.TFlops,
		PeakTensor: 125 * units.TFlops,
		HBM:        16 * units.GB,
		HBMBW:      900 * units.GBps,
	}
}

// V100HighMem is the 32 GB V100 in the 2020 high-memory nodes.
func V100HighMem() GPU {
	g := V100()
	g.Name = "V100-32GB"
	g.HBM = 32 * units.GB
	return g
}

// Node describes one compute node.
type Node struct {
	Name     string
	GPUs     int
	GPU      GPU
	CPUCores int // cores available to user processes
	DDR      units.Bytes
	NVMe     units.Bytes
	// NVMeReadBW is the per-node burst-buffer read bandwidth; Summit's
	// aggregate "over 27 TB/s" over 4608 nodes gives ~6 GB/s per node.
	NVMeReadBW  units.BytesPerSecond
	NVMeWriteBW units.BytesPerSecond
	// InjectionBW is the node's network injection bandwidth (dual-rail EDR).
	InjectionBW units.BytesPerSecond
	// NVLinkBW is the intra-node GPU interconnect bandwidth per link.
	NVLinkBW units.BytesPerSecond
}

// SummitNode is the original AC922 node.
func SummitNode() Node {
	return Node{
		Name:        "AC922",
		GPUs:        6,
		GPU:         V100(),
		CPUCores:    42, // 2x22 minus one reserved core per socket
		DDR:         512 * units.GB,
		NVMe:        1600 * units.GB,
		NVMeReadBW:  6 * units.GBps,
		NVMeWriteBW: 2.1 * units.GBps,
		InjectionBW: 25 * units.GBps,
		NVLinkBW:    50 * units.GBps,
	}
}

// SummitHighMemNode is the 2020 high-memory AC922 variant.
func SummitHighMemNode() Node {
	n := SummitNode()
	n.Name = "AC922-HighMem"
	n.GPU = V100HighMem()
	n.DDR = 2 * units.TB
	n.NVMe = 6400 * units.GB
	return n
}

// SharedFS describes a center-wide parallel file system.
type SharedFS struct {
	Name    string
	ReadBW  units.BytesPerSecond // aggregate
	WriteBW units.BytesPerSecond
}

// Alpine is Summit's GPFS scratch file system; the paper quotes 2.5 TB/s
// aggregate read bandwidth.
func Alpine() SharedFS {
	return SharedFS{Name: "Alpine-GPFS", ReadBW: 2.5 * units.TBps, WriteBW: 2.5 * units.TBps}
}

// Machine is a full system description.
type Machine struct {
	Name         string
	Nodes        int
	Node         Node
	HighMemNodes int
	HighMemNode  Node
	FS           SharedFS
	// RingAllreduceBW is the effective per-node algorithm bandwidth of a
	// ring allreduce: half the injection bandwidth (send and receive share
	// the wire in opposite directions around the ring), 12.5 GB/s on
	// Summit per the paper's §VI-B.
	RingAllreduceBW units.BytesPerSecond
	// NetworkLatency is the per-message small-message latency.
	NetworkLatency units.Seconds
	// CollectiveAlpha is the effective per-hop latency of pipelined
	// collectives on this fabric. Production allreduces pipeline
	// sub-chunks and run one ring per local rank, so it sits far below
	// the raw point-to-point NetworkLatency (see netsim.SummitFabric).
	CollectiveAlpha units.Seconds
	// Rails is the number of independent injection rails (NICs) usable
	// as concurrent inter-node rings by a hierarchical allreduce.
	Rails int
	// NodeMTBF is the mean time between failures of a single node. The
	// job-visible system MTBF is NodeMTBF / job node count: leadership
	// machines with thousands of nodes interrupt a full-system job every
	// few hours even when each node fails only once in years (the regime
	// the §IV-B scale-out runs survived). Zero means unspecified; the
	// faults package substitutes its default.
	NodeMTBF units.Seconds
}

// Summit returns the full Summit description.
func Summit() Machine {
	return Machine{
		Name:            "Summit",
		Nodes:           4608,
		Node:            SummitNode(),
		HighMemNodes:    54,
		HighMemNode:     SummitHighMemNode(),
		FS:              Alpine(),
		RingAllreduceBW: 12.5 * units.GBps,
		NetworkLatency:  1.5e-6,
		CollectiveAlpha: 1e-7,
		Rails:           2,
		// ~2 years per node: a full-machine job (4608 nodes) sees a
		// failure roughly every 3.8 hours, consistent with the few-hour
		// interrupt cadence reported for Titan/Summit-class systems.
		NodeMTBF: 2 * units.Year,
	}
}

// TotalGPUs returns the GPU count of the base partition.
func (m Machine) TotalGPUs() int { return m.Nodes * m.Node.GPUs }
