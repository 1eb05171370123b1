package parallel

import (
	"fmt"
	"sort"
	"sync"
)

// Node is one unit of work in a dependency DAG: it may run only after
// every node named in Deps has completed. IDs are free-form strings;
// the experiment engine uses "sub/..." keys for shared intermediates and
// "exp/..." keys for experiment bodies.
type Node struct {
	ID   string
	Deps []string
	Run  func()
}

// DAGError reports a malformed graph (duplicate ID, unknown dependency,
// or dependency cycle) before any node has run.
type DAGError struct{ Reason string }

func (e *DAGError) Error() string { return "parallel: invalid DAG: " + e.Reason }

// RunDAG executes the nodes in dependency order with at most workers
// concurrent goroutines, the caller among them (workers <= 0 means
// GOMAXPROCS). The graph is validated up front — duplicate IDs, unknown
// dependencies, and cycles return a *DAGError with nothing run.
// Scheduling is deterministic in its observable effects: among ready
// nodes the lowest declaration index is dispatched first, so with one
// worker the caller runs the whole graph in a fixed topological order
// (declaration order among ready nodes) with nothing spawned.
//
// Panic semantics extend ForEach's: a panicking node marks its
// transitive dependents as skipped (their Run is never called), every
// node not downstream of a failure still runs to completion, and then
// the panic with the lowest declaration index is re-raised as an
// ItemPanic wrapping the original value — identically at any -j.
func RunDAG(workers int, nodes []Node) error {
	n := len(nodes)
	if n == 0 {
		return nil
	}
	index := make(map[string]int, n)
	for i, nd := range nodes {
		if nd.ID == "" {
			return &DAGError{Reason: fmt.Sprintf("node %d has empty ID", i)}
		}
		if prev, dup := index[nd.ID]; dup {
			return &DAGError{Reason: fmt.Sprintf("duplicate node ID %q (nodes %d and %d)", nd.ID, prev, i)}
		}
		index[nd.ID] = i
	}
	// Build the edge lists and in-degrees, validating dependency names.
	waiting := make([]int, n)      // unmet dependency count per node
	dependents := make([][]int, n) // forward edges
	for i, nd := range nodes {
		for _, dep := range nd.Deps {
			j, ok := index[dep]
			if !ok {
				return &DAGError{Reason: fmt.Sprintf("node %q depends on unknown node %q", nd.ID, dep)}
			}
			if j == i {
				return &DAGError{Reason: fmt.Sprintf("node %q depends on itself", nd.ID)}
			}
			waiting[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	if err := checkAcyclic(nodes, index, waiting, dependents); err != nil {
		return err
	}

	var (
		mu      sync.Mutex
		first   *ItemPanic
		skipped = make([]bool, n)
	)
	// skip marks i and its transitive dependents as skipped; callers hold mu.
	var skip func(i int)
	skip = func(i int) {
		if skipped[i] {
			return
		}
		skipped[i] = true
		for _, d := range dependents[i] {
			skip(d)
		}
	}
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if first == nil || i < first.Index {
					first = &ItemPanic{Index: i, Value: r}
				}
				skip(i)
				skipped[i] = true
				mu.Unlock()
			}
		}()
		nodes[i].Run()
	}

	var (
		cond    = sync.NewCond(&mu)
		ready   []int // kept sorted; lowest declaration index first
		pending = n   // nodes not yet finished (run or skipped)
	)
	push := func(i int) {
		at := sort.SearchInts(ready, i)
		ready = append(ready, 0)
		copy(ready[at+1:], ready[at:])
		ready[at] = i
	}
	for i := range nodes {
		if waiting[i] == 0 {
			push(i)
		}
	}
	fanOut(workerCount(workers, n), func() {
		mu.Lock()
		for {
			for len(ready) == 0 && pending > 0 {
				cond.Wait()
			}
			if pending == 0 {
				mu.Unlock()
				cond.Broadcast()
				return
			}
			i := ready[0]
			ready = ready[1:]
			doRun := !skipped[i]
			mu.Unlock()
			if doRun {
				run(i)
			}
			mu.Lock()
			pending--
			pushed := 0
			for _, d := range dependents[i] {
				waiting[d]--
				if waiting[d] == 0 {
					push(d)
					pushed++
				}
			}
			// Wake only as many workers as there is new work for: a
			// single unblocked node needs one waiter, not the whole herd
			// re-contending on mu. Termination still broadcasts so every
			// worker observes pending == 0. Workers always re-check ready
			// before sleeping, so a Signal that finds no waiter is never
			// lost.
			if pending == 0 {
				cond.Broadcast()
			} else if pushed == 1 {
				cond.Signal()
			} else if pushed > 1 {
				cond.Broadcast()
			}
		}
	})
	if first != nil {
		panic(*first)
	}
	return nil
}

// checkAcyclic runs Kahn's algorithm on copies of the degree arrays and
// names one cycle member deterministically when the graph does not drain.
func checkAcyclic(nodes []Node, index map[string]int, waiting []int, dependents [][]int) error {
	deg := append([]int(nil), waiting...)
	queue := make([]int, 0, len(nodes))
	for i := range nodes {
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		done++
		for _, d := range dependents[i] {
			deg[d]--
			if deg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if done == len(nodes) {
		return nil
	}
	for i, nd := range nodes {
		if deg[i] > 0 {
			return &DAGError{Reason: fmt.Sprintf("dependency cycle involving node %q", nd.ID)}
		}
	}
	return &DAGError{Reason: "dependency cycle"}
}
