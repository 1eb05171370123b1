// Package topology builds and routes the non-blocking fat-tree fabric of
// the paper's §II-A Summit description (a dual-rail EDR InfiniBand fat
// tree with adaptive routing). It provides a three-level k-ary fat tree,
// shortest-path routing with either deterministic (ECMP-hash) or adaptive
// (least-loaded) uplink selection, and per-link load accounting so
// congestion under collective traffic patterns can be measured.
package topology

import (
	"fmt"
)

// FatTree is a three-level k-ary fat tree: k pods of k/2 edge and k/2
// aggregation switches, (k/2)^2 core switches, and k^3/4 hosts. All links
// have equal capacity, making the fabric non-blocking in theory; whether a
// workload achieves that depends on routing.
type FatTree struct {
	Radix int
	// Derived sizes.
	PodCount     int
	EdgePerPod   int
	AggPerPod    int
	CoreCount    int
	HostsPerEdge int
	HostCount    int

	// load counts flows per directed link; keys from linkKey.
	load map[uint64]int
}

// NewFatTree builds a fat tree of even radix k >= 2.
func NewFatTree(k int) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topology: fat-tree radix must be even and >= 2, got %d", k))
	}
	half := k / 2
	return &FatTree{
		Radix:        k,
		PodCount:     k,
		EdgePerPod:   half,
		AggPerPod:    half,
		CoreCount:    half * half,
		HostsPerEdge: half,
		HostCount:    k * half * half,
		load:         map[uint64]int{},
	}
}

// NodeKind distinguishes the vertices of the tree.
type NodeKind int

// Vertex kinds.
const (
	Host NodeKind = iota
	Edge
	Agg
	Core
)

// NodeID identifies a vertex.
type NodeID struct {
	Kind NodeKind
	// For Host: global host index. For Edge/Agg: pod*half + index.
	// For Core: group*half + index, where group selects the aggregation
	// position it connects to.
	Index int
}

// HostEdge returns the edge switch serving host h.
func (t *FatTree) HostEdge(h int) NodeID {
	t.checkHost(h)
	return NodeID{Kind: Edge, Index: h / t.HostsPerEdge}
}

// Pod returns the pod number of host h.
func (t *FatTree) Pod(h int) int {
	t.checkHost(h)
	return h / (t.HostsPerEdge * t.EdgePerPod)
}

func (t *FatTree) checkHost(h int) {
	if h < 0 || h >= t.HostCount {
		panic(fmt.Sprintf("topology: host %d of %d", h, t.HostCount))
	}
}

// linkKey encodes a directed edge between two vertices.
func linkKey(a, b NodeID) uint64 {
	return uint64(a.Kind)<<60 | uint64(a.Index)<<34 | uint64(b.Kind)<<30 | uint64(b.Index)
}

// coreFor returns the core switch index for aggregation position aggIdx
// (within its pod) and uplink u in [0, half).
func (t *FatTree) coreFor(aggIdx, u int) int {
	return aggIdx*t.AggPerPod + u
}

// Route returns the vertex path from host src to host dst. With adaptive
// true, uplink choices minimize current link load (the adaptive routing of
// Summit's fabric); otherwise a deterministic hash of (src, dst) picks the
// path (ECMP-style static routing). The chosen path's links are NOT
// recorded; call AddFlow to commit it.
func (t *FatTree) Route(src, dst int, adaptive bool) []NodeID {
	t.checkHost(src)
	t.checkHost(dst)
	if src == dst {
		return []NodeID{{Kind: Host, Index: src}}
	}
	srcEdge := t.HostEdge(src)
	dstEdge := t.HostEdge(dst)
	path := []NodeID{{Kind: Host, Index: src}, srcEdge}
	if srcEdge == dstEdge {
		return append(path, NodeID{Kind: Host, Index: dst})
	}
	srcPod, dstPod := t.Pod(src), t.Pod(dst)
	if srcPod == dstPod {
		agg := t.chooseAgg(srcEdge, dstEdge, src, dst, adaptive)
		return append(path, agg, dstEdge, NodeID{Kind: Host, Index: dst})
	}
	agg1 := t.chooseAgg(srcEdge, NodeID{}, src, dst, adaptive)
	core := t.chooseCore(agg1, src, dst, adaptive)
	// The core switch determines the aggregation switch in the destination
	// pod: core group g connects to agg position g of every pod.
	aggPos := core.Index / t.AggPerPod
	agg2 := NodeID{Kind: Agg, Index: dstPod*t.AggPerPod + aggPos}
	return append(path, agg1, core, agg2, dstEdge, NodeID{Kind: Host, Index: dst})
}

// chooseAgg selects an aggregation switch in the source pod.
func (t *FatTree) chooseAgg(srcEdge, _ NodeID, src, dst int, adaptive bool) NodeID {
	pod := srcEdge.Index / t.EdgePerPod
	if !adaptive {
		pick := hash2(src, dst) % t.AggPerPod
		return NodeID{Kind: Agg, Index: pod*t.AggPerPod + pick}
	}
	best, bestLoad := 0, int(^uint(0)>>1)
	for i := 0; i < t.AggPerPod; i++ {
		agg := NodeID{Kind: Agg, Index: pod*t.AggPerPod + i}
		if l := t.load[linkKey(srcEdge, agg)]; l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return NodeID{Kind: Agg, Index: pod*t.AggPerPod + best}
}

// chooseCore selects a core switch reachable from agg.
func (t *FatTree) chooseCore(agg NodeID, src, dst int, adaptive bool) NodeID {
	aggPos := agg.Index % t.AggPerPod
	if !adaptive {
		pick := hash2(dst, src) % t.AggPerPod
		return NodeID{Kind: Core, Index: t.coreFor(aggPos, pick)}
	}
	best, bestLoad := 0, int(^uint(0)>>1)
	for u := 0; u < t.AggPerPod; u++ {
		core := NodeID{Kind: Core, Index: t.coreFor(aggPos, u)}
		if l := t.load[linkKey(agg, core)]; l < bestLoad {
			best, bestLoad = u, l
		}
	}
	return NodeID{Kind: Core, Index: t.coreFor(aggPos, best)}
}

func hash2(a, b int) int {
	x := uint64(a)*0x9e3779b97f4a7c15 + uint64(b)
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	h := int(x & 0x7fffffff)
	return h
}

// AddFlow routes one unit flow from src to dst (committing link loads) and
// returns the path.
func (t *FatTree) AddFlow(src, dst int, adaptive bool) []NodeID {
	path := t.Route(src, dst, adaptive)
	for i := 0; i+1 < len(path); i++ {
		t.load[linkKey(path[i], path[i+1])]++
	}
	return path
}

// ResetLoad clears all link loads.
func (t *FatTree) ResetLoad() { t.load = map[uint64]int{} }

// MaxLinkLoad returns the maximum number of flows sharing any directed
// link. 1 means a congestion-free (non-blocking) embedding.
func (t *FatTree) MaxLinkLoad() int {
	m := 0
	for _, l := range t.load {
		if l > m {
			m = l
		}
	}
	return m
}

// RingNeighborTraffic commits the flow pattern of a ring allreduce over n
// consecutive hosts (each host sends to the next, wrapping) and returns
// the resulting maximum link load. The fat tree keeps neighbour rings
// nearly congestion-free, which is why ring allreduce sustains the
// paper's 12.5 GB/s algorithm bandwidth at full scale.
func (t *FatTree) RingNeighborTraffic(n int, adaptive bool) int {
	if n > t.HostCount {
		panic("topology: ring larger than host count")
	}
	t.ResetLoad()
	for i := 0; i < n; i++ {
		t.AddFlow(i, (i+1)%n, adaptive)
	}
	return t.MaxLinkLoad()
}
