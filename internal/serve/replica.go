package serve

import (
	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// replicaPool tracks one model's serving replicas on the simulated
// clock. Dispatch is deterministic: the free replica with the lowest
// index wins, and closed batches wait in FIFO order when all replicas
// are busy or lost.
type replicaPool struct {
	// busyUntil[i] is when replica i finishes its current batch; zero or
	// past means free. A lost replica is marked with busyUntil = +inf.
	busyUntil []units.Seconds
	lost      []bool
	waiting   queue[[]Request] // closed batches awaiting a free replica

	started   int // batches dispatched into service
	lostCount int
}

func newReplicaPool(n int) *replicaPool {
	if n < 1 {
		n = 1
	}
	return &replicaPool{
		busyUntil: make([]units.Seconds, n),
		lost:      make([]bool, n),
	}
}

// free returns the lowest-index replica idle at time t, or -1.
func (p *replicaPool) free(t units.Seconds) int {
	for i, until := range p.busyUntil {
		if !p.lost[i] && until <= t {
			return i
		}
	}
	return -1
}

// alive reports how many replicas remain.
func (p *replicaPool) alive() int {
	n := 0
	for _, l := range p.lost {
		if !l {
			n++
		}
	}
	return n
}

// fail marks the lowest-index live replica lost (graceful drain: a busy
// replica finishes its in-flight batch first; the router re-checks the
// backlog at that completion). It reports whether a replica was lost.
func (p *replicaPool) fail() bool {
	for i, l := range p.lost {
		if !l {
			p.lost[i] = true
			p.lostCount++
			return true
		}
	}
	return false
}

// anyLost reports whether a replica is currently marked lost.
func (p *replicaPool) anyLost() bool {
	for _, l := range p.lost {
		if l {
			return true
		}
	}
	return false
}

// repair returns the lowest-index lost replica to service.
func (p *replicaPool) repair() bool {
	for i, l := range p.lost {
		if l {
			p.lost[i] = false
			return true
		}
	}
	return false
}

// queue is a FIFO that keeps its backing array: a pop advances a head
// index instead of reslicing away the array's front, and a push into a
// full array slides the live items down when at least half of it is
// spent, so the array neither regrows per item nor grows beyond a
// constant factor of the longest backlog.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

func (q *queue[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	return v
}

// ReplicasFor sizes one model's replica pool from the platform registry:
// the serving allocation is one node per 4096 (at least one — inference
// rides alongside the training campaign, it doesn't own the machine),
// every GPU on those nodes hosts a replica, and the GPUs divide evenly
// across the model fleet. CPU-only platforms serve one replica per
// allocated node.
func ReplicasFor(p platform.Platform, nModels int) int {
	if nModels < 1 {
		nModels = 1
	}
	allocNodes := p.Nodes / 4096
	if allocNodes < 1 {
		allocNodes = 1
	}
	perNode := p.Node.GPUs
	if perNode < 1 {
		perNode = 1
	}
	r := allocNodes * perNode / nModels
	if r < 1 {
		r = 1
	}
	return r
}
