package netsim

import (
	"summitscale/internal/machine"
	"summitscale/internal/units"
)

// HierarchicalFabric models Summit's two-level reduction path: an
// intra-node NVLink stage over the node's GPUs followed by an inter-node
// ring over the InfiniBand fabric, with one network endpoint per node.
type HierarchicalFabric struct {
	Inter Fabric
	// NVLinkBW is the per-GPU intra-node link bandwidth.
	NVLinkBW units.BytesPerSecond
	// GPUsPerNode is the island size.
	GPUsPerNode int
	// Rails is the number of parallel inter-node rings (production stacks
	// run one ring per local rank, bounded by the rail count).
	Rails int
}

// HierarchicalFabricFor returns the two-level reduction path of a machine
// description: NVLink island of the node's GPUs, inter-node rings over
// the machine's rails.
func HierarchicalFabricFor(m machine.Machine) HierarchicalFabric {
	rails := m.Rails
	if rails < 1 {
		rails = 1
	}
	return HierarchicalFabric{
		Inter:       FabricFor(m),
		NVLinkBW:    m.Node.NVLinkBW,
		GPUsPerNode: m.Node.GPUs,
		Rails:       rails,
	}
}

// AllReduce returns the time for a hierarchical allreduce of n bytes per
// GPU across `nodes` nodes: intra-node reduce-scatter + allgather over
// NVLink, then the inter-node ring on 1/Rails of the data per rail in
// parallel.
func (h HierarchicalFabric) AllReduce(nodes int, n units.Bytes) units.Seconds {
	var intra float64
	if h.GPUsPerNode > 1 {
		g := float64(h.GPUsPerNode)
		intra = 2 * (g - 1) / g * float64(n) / float64(h.NVLinkBW)
	}
	var inter units.Seconds
	if nodes > 1 {
		perRail := units.Bytes(float64(n) / float64(max(1, h.Rails)))
		inter = h.Inter.RingAllReduce(nodes, perRail)
	}
	return units.Seconds(intra) + inter
}
