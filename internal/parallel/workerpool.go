package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// WorkerPool is the persistent counterpart of ForEach: a fixed set of
// long-lived worker goroutines that wait between calls with a hot receive
// (Recv: a short poll, then park), so a hot kernel
// (GEMM row panels, MD force slabs, sharded optimizer loops) pays no
// goroutine-spawn cost per invocation. Work is dispatched as chunked
// ranges claimed through an atomic cursor; callers that write results to
// disjoint shards and merge them in shard order get output independent
// of scheduling, exactly as with ForEach.
//
// The one-shot fan-outs (ForEach, MapOrdered, RunDAG) deliberately do
// not run on a WorkerPool: their items are experiment bodies and
// campaign instances that themselves call kernels on Shared, and a
// RunRange nested inside a RunRange chunk of the same pool can deadlock
// (see RunRange).
//
// The pool is safe for concurrent RunRange calls from multiple
// goroutines: each call is an independent job and helpers multiplex
// between them. A WorkerPool must be released with Close when it is no
// longer needed; the process-wide Shared pool is never closed.
type WorkerPool struct {
	workers int
	jobs    chan *rangeJob
}

// rangeJob is one RunRange invocation in flight: a chunk cursor claimed
// by every participant, a count of participants still working, and the
// lowest-chunk panic, if any. Jobs are recycled through jobPool so a hot
// kernel's dispatch is allocation-free in steady state (the done channel
// is buffered and reused across invocations; finish sends rather than
// closes).
type rangeJob struct {
	fn     func(lo, hi int)
	n      int
	grain  int
	cursor atomic.Int64
	active atomic.Int64
	done   chan struct{}

	mu    sync.Mutex
	first *ItemPanic
}

var jobPool = sync.Pool{New: func() any {
	return &rangeJob{done: make(chan struct{}, 1)}
}}

// work claims chunks until the range is exhausted. Panics are recorded
// per chunk (lowest chunk start wins) and never escape a helper.
func (j *rangeJob) work() {
	for {
		c := int(j.cursor.Add(1)) - 1
		lo := c * j.grain
		if lo >= j.n {
			return
		}
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.runChunk(lo, hi)
	}
}

func (j *rangeJob) runChunk(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			j.mu.Lock()
			if j.first == nil || lo < j.first.Index {
				j.first = &ItemPanic{Index: lo, Value: r}
			}
			j.mu.Unlock()
		}
	}()
	j.fn(lo, hi)
}

// finish retires one participant; the last one releases the caller. The
// job may be recycled the moment the caller receives from done, so this
// send must be the final touch of j by any participant.
func (j *rangeJob) finish() {
	if j.active.Add(-1) == 0 {
		j.done <- struct{}{}
	}
}

// runChunkSerial is the inline-execution counterpart of rangeJob.runChunk:
// same all-chunks-run, lowest-chunk-panic-wins semantics, but tracked in a
// caller-stack ItemPanic slot so the serial path allocates nothing.
func runChunkSerial(first **ItemPanic, lo, hi int, fn func(lo, hi int)) {
	defer func() {
		if r := recover(); r != nil {
			if *first == nil || lo < (*first).Index {
				*first = &ItemPanic{Index: lo, Value: r}
			}
		}
	}()
	fn(lo, hi)
}

// NewWorkerPool starts a persistent pool of the given width.
// Non-positive widths resolve to GOMAXPROCS. The caller's goroutine
// always participates in dispatched work, so a pool of width w starts
// w-1 helper goroutines; width 1 starts none and every RunRange runs
// inline.
func NewWorkerPool(workers int) *WorkerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &WorkerPool{workers: workers}
	if workers > 1 {
		// Helpers multiplex jobs over one buffered channel; the buffer is
		// sized so dispatch never blocks (at most workers-1 outstanding
		// job handles per RunRange, and jobs are fully drained before a
		// RunRange returns).
		p.jobs = make(chan *rangeJob, workers)
		for w := 1; w < workers; w++ {
			go p.helper()
		}
	}
	return p
}

func (p *WorkerPool) helper() {
	for {
		j, ok := Recv(p.jobs)
		if !ok {
			return
		}
		j.work()
		j.finish()
	}
}

// Workers returns the pool width.
func (p *WorkerPool) Workers() int { return p.workers }

// Close stops the helper goroutines. RunRange must not be called after
// Close; in-flight calls complete normally.
func (p *WorkerPool) Close() {
	if p.jobs != nil {
		close(p.jobs)
	}
}

// shared is the process-wide pool, sized to GOMAXPROCS at first use.
var (
	sharedOnce sync.Once
	sharedPool *WorkerPool
)

// Shared returns the process-wide persistent pool, creating it (at
// GOMAXPROCS width) on first use. It is never closed.
func Shared() *WorkerPool {
	sharedOnce.Do(func() { sharedPool = NewWorkerPool(0) })
	return sharedPool
}

// RunRange partitions [0, n) into chunks of grain elements and invokes
// fn(lo, hi) for each chunk, using the caller plus up to workers-1
// helpers. Chunks are claimed dynamically, so load balances across
// uneven work, but chunk boundaries depend only on (n, grain): callers
// that write each chunk's results to its own storage and combine them
// in chunk order are bit-identical at any pool width. fn must not
// retain or overlap chunk ranges.
//
// All chunks run to completion even when some panic; the panic whose
// chunk starts lowest is then re-raised on the caller as an ItemPanic
// (Index = the chunk's lo), matching ForEach semantics.
//
// fn must not call RunRange (or RunRangeMax) on the same pool: the inner
// call queues job handles for helpers that are all busy running outer
// chunks, and can wait for them forever.
func (p *WorkerPool) RunRange(n, grain int, fn func(lo, hi int)) {
	p.RunRangeMax(p.workers, n, grain, fn)
}

// RunRangeMax is RunRange with the participant count capped at max
// (1 <= effective <= pool width): the MD force kernel uses it to honour
// System.Workers without needing a pool per setting. The chunk
// decomposition — and therefore the result, for deterministic callers —
// does not depend on the cap.
func (p *WorkerPool) RunRangeMax(max, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	workers := p.workers
	if max > 0 && max < workers {
		workers = max
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 || p.jobs == nil {
		// Inline execution: no job handle, no channel traffic, zero
		// allocations — a width-1 pool dispatches exactly like a plain
		// loop over the chunk decomposition.
		var first *ItemPanic
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			runChunkSerial(&first, lo, hi, fn)
		}
		if first != nil {
			panic(*first)
		}
		return
	}
	j := jobPool.Get().(*rangeJob)
	j.fn, j.n, j.grain = fn, n, grain
	j.cursor.Store(0)
	j.active.Store(int64(workers))
	j.first = nil
	for w := 1; w < workers; w++ {
		p.jobs <- j
	}
	j.work()
	j.finish()
	Recv(j.done)
	first := j.first
	j.fn = nil
	jobPool.Put(j)
	if first != nil {
		panic(*first)
	}
}
