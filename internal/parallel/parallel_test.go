package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestWorkerCountDefaults pins the width convention shared by ForEach,
// MapOrdered and RunDAG: non-positive means GOMAXPROCS, and the width
// never exceeds the item count.
func TestWorkerCountDefaults(t *testing.T) {
	const many = 1 << 20
	if got := workerCount(0, many); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := workerCount(-3, many); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(-3) = %d", got)
	}
	if got := workerCount(5, many); got != 5 {
		t.Fatalf("workerCount(5) = %d", got)
	}
	if got := workerCount(5, 3); got != 3 {
		t.Fatalf("workerCount(5, 3 items) = %d", got)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		const n = 503
		counts := make([]atomic.Int32, n)
		ForEach(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(8, 0, func(int) { t.Fatal("fn called for n=0") })
	ForEach(8, -2, func(int) { t.Fatal("fn called for n<0") })
	ran := false
	ForEach(8, 1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("single item not run")
	}
}

// TestMapOrderedDeterministic is the ordered fan-out guarantee: results
// land in index order no matter how many workers raced over the items.
func TestMapOrderedDeterministic(t *testing.T) {
	const n = 200
	want := MapOrdered(1, n, func(i int) int { return i * i })
	for _, workers := range []int{2, 3, 8, 32} {
		got := MapOrdered(workers, n, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		ip, ok := r.(ItemPanic)
		if !ok {
			t.Fatalf("panic value is %T, want ItemPanic", r)
		}
		if ip.Index != 17 || ip.Value != "boom" {
			t.Fatalf("panic lost its payload: %+v", ip)
		}
		if !strings.Contains(ip.Error(), "boom") {
			t.Fatalf("message lost the payload: %v", ip)
		}
	}()
	ForEach(4, 64, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

// TestForEachPanicLowestIndexWins pins the deterministic-failure rule:
// when several items panic, the caller always sees the lowest index.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if !strings.Contains(r.(ItemPanic).Error(), "work item 3 panicked") {
					t.Fatalf("wrong panic won: %v", r)
				}
			}()
			ForEach(8, 100, func(i int) {
				if i >= 3 {
					panic(i)
				}
			})
		}()
	}
}

// errSentinel is a typed panic payload for the identity test.
type errSentinel struct{ code int }

func (e errSentinel) Error() string { return "sentinel" }

// TestForEachPanicIdentityAcrossWorkerCounts is the regression test for
// the -j-dependent panic flattening: the original panic value — including
// typed sentinels — must survive the pool boundary identically on the
// single- and multi-worker paths.
func TestForEachPanicIdentityAcrossWorkerCounts(t *testing.T) {
	want := errSentinel{code: 42}
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				r := recover()
				ip, ok := r.(ItemPanic)
				if !ok {
					t.Fatalf("workers=%d: panic value is %T, want ItemPanic", workers, r)
				}
				if got, ok := ip.Value.(errSentinel); !ok || got != want {
					t.Fatalf("workers=%d: payload %#v lost identity", workers, ip.Value)
				}
				if ip.Index != 2 {
					t.Fatalf("workers=%d: index %d, want 2", workers, ip.Index)
				}
			}()
			ForEach(workers, 8, func(i int) {
				if i == 2 {
					panic(want)
				}
			})
		}()
	}
}

// TestSingleWorkerRunsAllDespitePanic: the one-worker path must match the
// multi-worker contract — every item runs even after an earlier panic.
func TestSingleWorkerRunsAllDespitePanic(t *testing.T) {
	const n = 16
	ran := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		ForEach(1, n, func(i int) {
			ran++
			if i == 0 {
				panic("early")
			}
		})
	}()
	if ran != n {
		t.Fatalf("only %d/%d items ran after a panic on one worker", ran, n)
	}
}

// TestForEachRunsAllDespitePanic: a panic must not strand unfinished work
// items (the report assembler indexes into every slot).
func TestForEachRunsAllDespitePanic(t *testing.T) {
	const n = 128
	var ran atomic.Int32
	func() {
		defer func() { recover() }()
		ForEach(4, n, func(i int) {
			ran.Add(1)
			if i == 0 {
				panic("early")
			}
		})
	}()
	if got := ran.Load(); got != n {
		t.Fatalf("only %d/%d items ran after a panic", got, n)
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	// With one worker, items must run on the caller's goroutine in order —
	// the contract that makes -j 1 the exact old sequential path.
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("one-worker order %v not sequential", order)
		}
	}
}
