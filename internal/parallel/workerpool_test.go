package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunRangeCoversRange pins that every element of [0, n) is visited
// exactly once at every pool width, including widths far beyond the host
// core count and n values that do not divide the grain.
func TestRunRangeCoversRange(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		p := NewWorkerPool(w)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			var hits = make([]int32, n)
			p.RunRange(n, 13, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("width %d n %d: element %d visited %d times", w, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestRunRangeDeterministicAcrossWidths is the cross-worker determinism
// contract: chunk boundaries depend only on (n, grain), so a kernel that
// writes disjoint shards and merges in chunk order produces bit-identical
// output at widths 1, 2, 4 and 8 — however the scheduler interleaves the
// chunk claims.
func TestRunRangeDeterministicAcrossWidths(t *testing.T) {
	const n, grain = 997, 16
	nChunks := (n + grain - 1) / grain
	run := func(w int) []float64 {
		p := NewWorkerPool(w)
		defer p.Close()
		// Each chunk accumulates into its own shard (a float sum whose
		// value depends on the chunk's bounds), then shards merge in
		// ascending chunk order — the packed-GEMM / MD-forces pattern.
		shards := make([]float64, nChunks)
		p.RunRange(n, grain, func(lo, hi int) {
			var s float64
			for i := lo; i < hi; i++ {
				s += 1.0 / float64(i+1)
			}
			shards[lo/grain] = s
		})
		out := make([]float64, 1)
		for _, s := range shards {
			out[0] += s
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); got[0] != ref[0] {
			t.Fatalf("width %d: merged sum %v != %v (width 1)", w, got[0], ref[0])
		}
	}
}

// TestRunRangeShuffledShardOrder is the merge-order regression test: the
// shard a chunk writes to is keyed by the chunk's position, not by claim
// order, so even when workers claim chunks in a scrambled order the
// merged result is unchanged. The stagger goroutine makes early chunks
// finish late, scrambling completion order deliberately.
func TestRunRangeShuffledShardOrder(t *testing.T) {
	const n, grain = 64, 4
	nChunks := n / grain
	p := NewWorkerPool(4)
	defer p.Close()

	var gate sync.WaitGroup
	gate.Add(1)
	var release sync.Once
	shards := make([]int, nChunks)
	var claimed atomic.Int32
	p.RunRange(n, grain, func(lo, hi int) {
		if claimed.Add(1) == 1 {
			gate.Wait() // first-claimed chunk completes last
		}
		shards[lo/grain] = lo
		if int(claimed.Load()) == nChunks {
			release.Do(gate.Done)
		}
	})
	for c, lo := range shards {
		if lo != c*grain {
			t.Fatalf("shard %d recorded lo %d, want %d", c, lo, c*grain)
		}
	}
}

// TestRunRangeMaxCapsParticipants pins that the cap bounds concurrency
// without changing the chunk decomposition.
func TestRunRangeMaxCapsParticipants(t *testing.T) {
	p := NewWorkerPool(8)
	defer p.Close()
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	seen := map[int]bool{}
	p.RunRangeMax(2, 64, 1, func(lo, hi int) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		mu.Lock()
		seen[lo] = true
		mu.Unlock()
		inFlight.Add(-1)
	})
	if got := peak.Load(); got > 2 {
		t.Fatalf("cap 2 but %d chunks ran concurrently", got)
	}
	if len(seen) != 64 {
		t.Fatalf("cap changed coverage: %d/64 chunks ran", len(seen))
	}
}

// TestRunRangePanicLowestChunk pins the ItemPanic contract at widths 1
// and 4: all chunks run, and the re-raised panic is the one whose chunk
// starts lowest.
func TestRunRangePanicLowestChunk(t *testing.T) {
	for _, w := range []int{1, 4} {
		p := NewWorkerPool(w)
		var ran atomic.Int32
		func() {
			defer func() {
				r := recover()
				ip, ok := r.(ItemPanic)
				if !ok {
					t.Fatalf("width %d: recovered %v, want ItemPanic", w, r)
				}
				if ip.Index != 10 {
					t.Fatalf("width %d: panic index %d, want lowest chunk 10", w, ip.Index)
				}
			}()
			p.RunRange(50, 10, func(lo, hi int) {
				ran.Add(1)
				if lo == 10 || lo == 30 {
					panic(lo)
				}
			})
		}()
		if ran.Load() != 5 {
			t.Fatalf("width %d: %d chunks ran, want all 5 despite panics", w, ran.Load())
		}
		p.Close()
	}
}

// TestRunRangeConcurrentCallers pins that one pool multiplexes
// overlapping RunRange calls from multiple goroutines without
// cross-talk.
func TestRunRangeConcurrentCallers(t *testing.T) {
	p := NewWorkerPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums := make([]int, 20)
			p.RunRange(len(sums), 3, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sums[i] = i * i
				}
			})
			for i, v := range sums {
				if v != i*i {
					t.Errorf("slot %d = %d, want %d", i, v, i*i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedPoolSingleton pins that Shared returns one process-wide pool.
func TestSharedPoolSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() returned distinct pools")
	}
	if Shared().Workers() < 1 {
		t.Fatalf("shared pool width %d", Shared().Workers())
	}
}

// inlineAllocProbe gives TestRunRangeInlineNoAllocs a capture-free func
// value: a closure passed to RunRange is heap-allocated by escape
// analysis regardless of width (which is why the hot kernels create
// their closures only on the above-threshold branch), so measuring pure
// dispatch cost needs a top-level function.
var inlineAllocSink [256]float64

func inlineAllocProbe(lo, hi int) {
	for i := lo; i < hi; i++ {
		inlineAllocSink[i]++
	}
}

// TestRunRangeInlineNoAllocs pins the width-1 dispatch cost: a plain
// loop, no job handle, no channel — the property that lets hot kernels
// call RunRange unconditionally without regressing single-core alloc
// floors.
func TestRunRangeInlineNoAllocs(t *testing.T) {
	p := NewWorkerPool(1)
	defer p.Close()
	allocs := testing.AllocsPerRun(50, func() {
		p.RunRange(len(inlineAllocSink), 16, inlineAllocProbe)
	})
	if allocs != 0 {
		t.Fatalf("width-1 RunRange allocates %.0f objects per call", allocs)
	}
}
