package mp

import (
	"sync"
	"testing"
	"testing/quick"

	"summitscale/internal/stats"
)

func TestHierarchicalMatchesRing(t *testing.T) {
	for _, tc := range []struct{ p, group int }{
		{4, 2}, {6, 3}, {8, 4}, {12, 6}, {6, 1}, {6, 6},
	} {
		vs := rankVectors(uint64(tc.p*10+tc.group), tc.p, 40)
		want := seqSum(vs)
		w := NewWorld(tc.p)
		w.Run(func(c *Comm) {
			got := c.AllReduceHierarchical(vs[c.Rank()], tc.group)
			if !almostEqual(got, want, 1e-9) {
				t.Errorf("p=%d group=%d rank=%d: hierarchical allreduce wrong",
					tc.p, tc.group, c.Rank())
			}
		})
	}
}

func TestHierarchicalBadGroupPanics(t *testing.T) {
	w := NewWorld(6)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.Run(func(c *Comm) { c.AllReduceHierarchical([]float64{1}, 4) })
}

// TestHierarchicalCutsInjectionTraffic verifies the design motivation:
// with 6-rank islands (a Summit node), the cross-island ring moves far
// fewer "injection" messages than a flat ring over all ranks.
func TestHierarchicalCutsInjectionTraffic(t *testing.T) {
	p, group, n := 12, 6, 6000
	vs := rankVectors(7, p, n)

	flat := NewWorld(p)
	flat.Run(func(c *Comm) { c.AllReduceRing(vs[c.Rank()]) })

	hier := NewWorld(p)
	hier.Run(func(c *Comm) { c.AllReduceHierarchical(vs[c.Rank()], group) })

	// Flat: p ranks * 2(p-1) messages. Hierarchical: 2(group-1) island
	// messages per island + leaders' ring 2(nLeaders-1)*nLeaders.
	if hier.MessagesSent() >= flat.MessagesSent() {
		t.Fatalf("hierarchical sent %d messages, flat %d",
			hier.MessagesSent(), flat.MessagesSent())
	}
}

func TestHierarchicalProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		rng := stats.NewRNG(uint64(seed))
		groups := []int{1, 2, 3, 4}
		g := groups[rng.Intn(len(groups))]
		islands := rng.Intn(3) + 1
		p := g * islands
		n := rng.Intn(50) + 1
		vs := rankVectors(uint64(seed)+5, p, n)
		want := seqSum(vs)
		var mu sync.Mutex
		ok := true
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			if !almostEqual(c.AllReduceHierarchical(vs[c.Rank()], g), want, 1e-8) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		mu.Lock()
		defer mu.Unlock()
		return ok
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
