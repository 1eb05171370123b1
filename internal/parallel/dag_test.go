package parallel

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// linearDAG builds a chain a -> b -> c ... recording completion order.
func chainNodes(ids []string, order *[]string, mu *sync.Mutex) []Node {
	nodes := make([]Node, len(ids))
	for i, id := range ids {
		i, id := i, id
		var deps []string
		if i > 0 {
			deps = []string{ids[i-1]}
		}
		nodes[i] = Node{ID: id, Deps: deps, Run: func() {
			mu.Lock()
			*order = append(*order, id)
			mu.Unlock()
		}}
	}
	return nodes
}

func TestRunDAGChainOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var (
			mu    sync.Mutex
			order []string
		)
		nodes := chainNodes([]string{"a", "b", "c", "d", "e"}, &order, &mu)
		if err := RunDAG(workers, nodes); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := strings.Join(order, ""); got != "abcde" {
			t.Errorf("workers=%d: chain ran in order %q", workers, got)
		}
	}
}

func TestRunDAGDependenciesRespected(t *testing.T) {
	// Diamond with a wide fan-out: every dependency edge must be observed
	// as done before the dependent runs, at any width.
	for _, workers := range []int{1, 3, 8} {
		var done sync.Map
		requireDone := func(ids ...string) {
			for _, id := range ids {
				if _, ok := done.Load(id); !ok {
					t.Errorf("workers=%d: dependency %s not done", workers, id)
				}
			}
		}
		mk := func(id string, deps ...string) Node {
			return Node{ID: id, Deps: deps, Run: func() {
				requireDone(deps...)
				done.Store(id, true)
			}}
		}
		nodes := []Node{
			mk("sink", "l1", "l2", "l3", "l4"),
			mk("root"),
			mk("l1", "root"), mk("l2", "root"), mk("l3", "root"), mk("l4", "root"),
		}
		if err := RunDAG(workers, nodes); err != nil {
			t.Fatal(err)
		}
		requireDone("sink")
	}
}

func TestRunDAGValidation(t *testing.T) {
	cases := []struct {
		name  string
		nodes []Node
		frag  string
	}{
		{"duplicate", []Node{{ID: "a", Run: func() {}}, {ID: "a", Run: func() {}}}, "duplicate node ID"},
		{"unknown dep", []Node{{ID: "a", Deps: []string{"ghost"}, Run: func() {}}}, "unknown node"},
		{"self dep", []Node{{ID: "a", Deps: []string{"a"}, Run: func() {}}}, "depends on itself"},
		{"empty id", []Node{{Run: func() {}}}, "empty ID"},
		{"cycle", []Node{
			{ID: "a", Deps: []string{"c"}, Run: func() {}},
			{ID: "b", Deps: []string{"a"}, Run: func() {}},
			{ID: "c", Deps: []string{"b"}, Run: func() {}},
		}, "cycle"},
	}
	for _, tc := range cases {
		ran := false
		for i := range tc.nodes {
			old := tc.nodes[i].Run
			tc.nodes[i].Run = func() { ran = true; old() }
		}
		err := RunDAG(4, tc.nodes)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if _, ok := err.(*DAGError); !ok {
			t.Errorf("%s: error type %T", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.frag)
		}
		if ran {
			t.Errorf("%s: nodes ran despite invalid graph", tc.name)
		}
	}
}

// TestRunDAGPanicSkipsDownstream pins the failure contract: the panic is
// re-raised as an ItemPanic with the panicking node's declaration index,
// transitive dependents never run, and independent nodes still complete —
// identically at any worker count.
func TestRunDAGPanicSkipsDownstream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var survivors atomic.Int64
		var downstream atomic.Int64
		nodes := []Node{
			{ID: "ok1", Run: func() { survivors.Add(1) }},
			{ID: "boom", Run: func() { panic("kaboom") }},
			{ID: "child", Deps: []string{"boom"}, Run: func() { downstream.Add(1) }},
			{ID: "grandchild", Deps: []string{"child"}, Run: func() { downstream.Add(1) }},
			{ID: "ok2", Run: func() { survivors.Add(1) }},
		}
		func() {
			defer func() {
				r := recover()
				ip, ok := r.(ItemPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T %v, want ItemPanic", workers, r, r)
				}
				if ip.Index != 1 || ip.Value != "kaboom" {
					t.Errorf("workers=%d: ItemPanic %+v", workers, ip)
				}
			}()
			RunDAG(workers, nodes)
		}()
		if survivors.Load() != 2 {
			t.Errorf("workers=%d: %d independent nodes ran, want 2", workers, survivors.Load())
		}
		if downstream.Load() != 0 {
			t.Errorf("workers=%d: %d downstream nodes ran after panic", workers, downstream.Load())
		}
	}
}

// TestRunDAGLowestPanicWins mirrors the ForEach contract on the DAG path.
func TestRunDAGLowestPanicWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		gate := make(chan struct{})
		nodes := []Node{
			{ID: "late", Run: func() {
				if workers > 1 {
					<-gate
				}
				panic("late")
			}},
			{ID: "early", Run: func() {
				if workers > 1 {
					close(gate)
				}
				panic("early")
			}},
		}
		func() {
			defer func() {
				ip, ok := recover().(ItemPanic)
				if !ok || ip.Index != 0 || ip.Value != "late" {
					t.Errorf("workers=%d: got %+v, want index 0 value late", workers, ip)
				}
			}()
			RunDAG(workers, nodes)
		}()
	}
}

func TestRunDAGEmpty(t *testing.T) {
	if err := RunDAG(4, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunDAGManyNodesStress drains a layered graph wider than the pool.
func TestRunDAGManyNodesStress(t *testing.T) {
	const layers, width = 8, 25
	var count atomic.Int64
	var nodes []Node
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			id := nodeID(l, w)
			var deps []string
			if l > 0 {
				// Each node depends on three nodes of the previous layer.
				for k := 0; k < 3; k++ {
					deps = append(deps, nodeID(l-1, (w+k)%width))
				}
			}
			nodes = append(nodes, Node{ID: id, Deps: deps, Run: func() { count.Add(1) }})
		}
	}
	if err := RunDAG(6, nodes); err != nil {
		t.Fatal(err)
	}
	if count.Load() != layers*width {
		t.Fatalf("ran %d of %d nodes", count.Load(), layers*width)
	}
}

func nodeID(l, w int) string {
	return string(rune('a'+l)) + "-" + string(rune('A'+w))
}
