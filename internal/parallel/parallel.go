// Package parallel is the shared fan-out layer beneath the harness's
// hot loops: the experiment DAG (internal/core), the benchmark-campaign
// evaluator (internal/bench), and the persistent kernel pool (GEMM, MD
// forces, sharded optimizers). Its one-shot fan-outs — ForEach,
// MapOrdered and RunDAG — are plain functions of a worker count: the
// caller is one of the workers, items are claimed dynamically, but every
// result is written to its own index, so the assembled output is
// independent of scheduling. A panic on any work item is re-raised on
// the caller, and when several items panic the one with the lowest index
// wins, so failures are as deterministic as results.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves a requested fan-out width for n items:
// non-positive widths (the conventional 0 = "use the machine") mean
// GOMAXPROCS, and there are never more workers than items.
func workerCount(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// fanOut runs work on the caller and on workers-1 extra goroutines and
// returns once every copy has returned. With one worker nothing is
// spawned: work runs inline on the caller's goroutine.
func fanOut(workers int, work func()) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ItemPanic carries a work item's panic to the caller: which item
// panicked and the original panic value, preserved so typed sentinels and
// runtime.Error values survive the pool boundary identically at any -j.
type ItemPanic struct {
	// Index is the work item that panicked (lowest index wins when
	// several panic).
	Index int
	// Value is the original panic value, unflattened.
	Value any
}

// Error renders the panic; ItemPanic also satisfies the error interface so
// recover sites can errors.As through it.
func (ip ItemPanic) Error() string {
	return fmt.Sprintf("parallel: work item %d panicked: %v", ip.Index, ip.Value)
}

// String matches Error, so %v formatting of the re-raised panic keeps the
// message format callers already match on.
func (ip ItemPanic) String() string { return ip.Error() }

// ForEach invokes fn(i) for every i in [0, n) with at most workers
// concurrent goroutines, the caller among them (workers <= 0 means
// GOMAXPROCS). Items are claimed in index order through an atomic
// cursor, so scheduling is dynamic, but callers that write results to
// slot i get output identical to a sequential loop; with one worker the
// caller runs every item in order with nothing spawned — the "-j 1" old
// path. All items run to completion before ForEach returns, even when
// some panic; then the panic with the lowest index is re-raised as an
// ItemPanic wrapping the original value, so panic identity does not
// depend on -j.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var (
		mu     sync.Mutex
		first  *ItemPanic
		cursor atomic.Int64
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if first == nil || i < first.Index {
					first = &ItemPanic{Index: i, Value: r}
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	fanOut(workerCount(workers, n), func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			run(i)
		}
	})
	if first != nil {
		panic(*first)
	}
}

// MapOrdered runs fn over [0, n) with at most workers goroutines and
// returns the results in index order, regardless of which worker
// computed what.
func MapOrdered[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
