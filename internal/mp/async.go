package mp

import "summitscale/internal/parallel"

// PendingReduce is an in-flight asynchronous collective started by
// AllReduceAsync. Wait blocks until it completes and returns the reduced
// vector; calling Wait again returns the same slice without blocking.
type PendingReduce struct {
	done chan []float64
	out  []float64
	got  bool
}

// AllReduceAsync runs the given allreduce on a helper goroutine and
// returns immediately, so the caller can overlap the collective with local
// computation (gradient reduction pipelined with the next backward pass —
// the communication/computation overlap of Kurth et al.'s lagged-gradient
// scheme made explicit).
//
// Contract: a Comm supports at most ONE outstanding collective, and the
// owning goroutine must not touch the Comm (sends, receives, or further
// collectives) until Wait returns. Comm receive buffering and the
// collective tag space are single-owner; the helper goroutine simply
// borrows that ownership for the duration. The channel receive inside Wait
// establishes the happens-before edge, so the returned slice is safe to
// read without further synchronization. data must not be written by the
// caller until Wait returns; the reduce function reads it on the helper.
func (c *Comm) AllReduceAsync(data []float64, reduce func(c *Comm, data []float64) []float64) *PendingReduce {
	p := &PendingReduce{done: make(chan []float64, 1)}
	go func() {
		p.done <- reduce(c, data)
	}()
	return p
}

// Wait blocks until the collective completes and returns its result.
func (p *PendingReduce) Wait() []float64 {
	if !p.got {
		p.out, _ = parallel.Recv(p.done)
		p.got = true
	}
	return p.out
}
