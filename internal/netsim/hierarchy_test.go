package netsim

import (
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/units"
)

// TestHierarchicalBeatsFlat: the two-level path beats one flat ring over
// every GPU, whose members share their node's injection bandwidth — the
// configuration hierarchical reduction exists to avoid.
func TestHierarchicalBeatsFlat(t *testing.T) {
	h := HierarchicalFabricFor(machine.Summit())
	shared := Fabric{Alpha: h.Inter.Alpha, Beta: h.Inter.Beta / units.BytesPerSecond(h.GPUsPerNode)}
	n := units.Bytes(100 * units.MB)
	for _, nodes := range []int{16, 256, 4608} {
		hier := h.AllReduce(nodes, n)
		flat := shared.RingAllReduce(nodes*h.GPUsPerNode, n)
		if hier >= flat {
			t.Errorf("nodes=%d: hierarchical %v not faster than flat %v", nodes, hier, flat)
		}
	}
}

func TestHierarchicalSingleNodeIsNVLinkOnly(t *testing.T) {
	h := HierarchicalFabricFor(machine.Summit())
	n := units.Bytes(120 * units.MB)
	got := h.AllReduce(1, n)
	want := 2.0 * 5 / 6 * 120e6 / 50e9
	if diff := float64(got) - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("single-node hierarchical = %v, want %v", got, want)
	}
}

func TestRailsParallelizeInterNode(t *testing.T) {
	h := HierarchicalFabricFor(machine.Summit())
	single := h
	single.Rails = 1
	n := units.Bytes(1 * units.GB)
	if h.AllReduce(1024, n) >= single.AllReduce(1024, n) {
		t.Fatal("dual-rail not faster than single-rail")
	}
}

func TestHierarchicalMonotonicInSize(t *testing.T) {
	h := HierarchicalFabricFor(machine.Summit())
	prev := units.Seconds(0)
	for _, n := range []units.Bytes{units.MB, 10 * units.MB, 100 * units.MB, units.GB} {
		cur := h.AllReduce(512, n)
		if cur <= prev {
			t.Fatalf("time not increasing at %v", n)
		}
		prev = cur
	}
}
