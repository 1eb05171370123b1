package topology

import (
	"testing"
	"testing/quick"

	"summitscale/internal/stats"
)

func TestSizesK4(t *testing.T) {
	ft := NewFatTree(4)
	if ft.HostCount != 16 || ft.PodCount != 4 || ft.CoreCount != 4 ||
		ft.EdgePerPod != 2 || ft.HostsPerEdge != 2 {
		t.Fatalf("k=4 sizes: %+v", ft)
	}
}

func TestSizesFormula(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		ft := NewFatTree(k)
		if ft.HostCount != k*k*k/4 {
			t.Errorf("k=%d hosts = %d, want %d", k, ft.HostCount, k*k*k/4)
		}
	}
}

func TestOddRadixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFatTree(3)
}

func TestPathLengths(t *testing.T) {
	ft := NewFatTree(4)
	// Hosts 0,1 share an edge switch; 0,2 share a pod; 0,8 cross pods.
	if got := len(ft.Route(0, 1, false)) - 1; got != 2 {
		t.Errorf("same-edge path links = %d, want 2", got)
	}
	if got := len(ft.Route(0, 2, false)) - 1; got != 4 {
		t.Errorf("same-pod path links = %d, want 4", got)
	}
	if got := len(ft.Route(0, 8, false)) - 1; got != 6 {
		t.Errorf("cross-pod path links = %d, want 6", got)
	}
	if got := len(ft.Route(5, 5, false)); got != 1 {
		t.Errorf("self route length = %d", got)
	}
}

func TestRouteEndpointsAndStructure(t *testing.T) {
	ft := NewFatTree(8)
	if err := quick.Check(func(seed uint32) bool {
		rng := stats.NewRNG(uint64(seed))
		src := rng.Intn(ft.HostCount)
		dst := rng.Intn(ft.HostCount)
		for _, adaptive := range []bool{false, true} {
			p := ft.Route(src, dst, adaptive)
			if p[0] != (NodeID{Kind: Host, Index: src}) {
				return false
			}
			if p[len(p)-1] != (NodeID{Kind: Host, Index: dst}) {
				return false
			}
			if src != dst {
				// Second vertex must be src's edge switch, second-to-last
				// dst's edge switch.
				if p[1] != ft.HostEdge(src) || p[len(p)-2] != ft.HostEdge(dst) {
					return false
				}
			}
			// No immediate repeats.
			for i := 0; i+1 < len(p); i++ {
				if p[i] == p[i+1] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossPodPathUsesConsistentCoreWiring(t *testing.T) {
	ft := NewFatTree(8)
	// For every cross-pod route, the core's group must match both agg
	// positions (the physical wiring constraint of a fat tree).
	for src := 0; src < 16; src++ {
		dst := ft.HostCount - 1 - src
		if ft.Pod(src) == ft.Pod(dst) {
			continue
		}
		p := ft.Route(src, dst, false)
		if len(p) != 7 {
			t.Fatalf("cross-pod path has %d vertices", len(p))
		}
		agg1, core, agg2 := p[2], p[3], p[4]
		group := core.Index / ft.AggPerPod
		if agg1.Index%ft.AggPerPod != group || agg2.Index%ft.AggPerPod != group {
			t.Fatalf("core group %d inconsistent with agg positions %d, %d",
				group, agg1.Index%ft.AggPerPod, agg2.Index%ft.AggPerPod)
		}
	}
}

// hostFlows sums the loads on host-to-edge links: the committed flows.
func hostFlows(t *FatTree) int {
	n := 0
	for k, l := range t.load {
		if NodeKind(k>>60) == Host {
			n += l
		}
	}
	return n
}

func TestRingTrafficNearlyCongestionFree(t *testing.T) {
	ft := NewFatTree(8) // 128 hosts
	load := ft.RingNeighborTraffic(ft.HostCount, true)
	if load > 1 {
		t.Fatalf("adaptive ring max link load = %d, want 1", load)
	}
	if got := hostFlows(ft); got != ft.HostCount {
		t.Fatalf("flows committed = %d", got)
	}
}

func TestAdaptiveNoWorseThanStaticForRing(t *testing.T) {
	ft := NewFatTree(8)
	staticLoad := ft.RingNeighborTraffic(ft.HostCount, false)
	adaptiveLoad := ft.RingNeighborTraffic(ft.HostCount, true)
	if adaptiveLoad > staticLoad {
		t.Fatalf("adaptive (%d) worse than static (%d) on ring", adaptiveLoad, staticLoad)
	}
}

func TestIncastCongestionDetected(t *testing.T) {
	ft := NewFatTree(4)
	ft.ResetLoad()
	// Everyone sends to host 0: the edge->host link must carry n-1 flows.
	for src := 1; src < ft.HostCount; src++ {
		ft.AddFlow(src, 0, true)
	}
	if got := ft.MaxLinkLoad(); got != ft.HostCount-1 {
		t.Fatalf("incast max load = %d, want %d", got, ft.HostCount-1)
	}
}

func TestPermutationTrafficAdaptiveBounded(t *testing.T) {
	ft := NewFatTree(8)
	rng := stats.NewRNG(99)
	perm := rng.Perm(ft.HostCount)
	ft.ResetLoad()
	for src, dst := range perm {
		if src != dst {
			ft.AddFlow(src, dst, true)
		}
	}
	// A non-blocking fabric admits any permutation with load 1 under
	// perfect routing; greedy adaptive routing should stay close. The
	// bound here is intentionally loose but still excludes pathological
	// congestion.
	if load := ft.MaxLinkLoad(); load > 3 {
		t.Fatalf("adaptive permutation max load = %d", load)
	}
}

func TestResetLoad(t *testing.T) {
	ft := NewFatTree(4)
	ft.AddFlow(0, 9, true)
	ft.ResetLoad()
	if ft.MaxLinkLoad() != 0 || hostFlows(ft) != 0 {
		t.Fatal("ResetLoad left residual state")
	}
}

func TestPodAssignment(t *testing.T) {
	ft := NewFatTree(4)
	// 16 hosts, 4 per pod.
	for h := 0; h < ft.HostCount; h++ {
		if got, want := ft.Pod(h), h/4; got != want {
			t.Fatalf("Pod(%d) = %d, want %d", h, got, want)
		}
	}
}

func BenchmarkAdaptiveRoute(b *testing.B) {
	ft := NewFatTree(16)
	for i := 0; i < b.N; i++ {
		ft.AddFlow(i%ft.HostCount, (i*7+13)%ft.HostCount, true)
		if i%1024 == 0 {
			ft.ResetLoad()
		}
	}
}
