// Package mp is an MPI-like message-passing substrate whose ranks are
// goroutines and whose links are Go channels. It provides the point-to-point
// primitives and the collectives (barrier, broadcast, reduce, ring and
// recursive-doubling allreduce, reduce-scatter, allgather) that distributed
// data-parallel training needs.
//
// Every transfer is counted, so higher layers (internal/ddl, the ablation
// benchmarks) can compare the byte volumes of collective algorithms against
// the analytic α–β models in internal/netsim.
//
// The ring allreduce reduces in place, into the caller's vector: it copies
// only the chunks it sends, into payloads it received earlier, and at world
// size 1 it does nothing. The other collectives return fresh vectors and
// leave their input alone.
package mp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"summitscale/internal/parallel"
)

// message is a tagged payload between two ranks.
type message struct {
	tag  int
	data []float64
}

// World owns the channels connecting a fixed set of ranks. Links are
// materialized lazily on first use: a P-rank world holds P² pointer slots
// but allocates a channel only for pairs that actually communicate, so
// large worlds built for analytic modelling (netsim cross-checks, counter
// accounting) cost O(P²) words instead of O(P²) buffered channels.
type World struct {
	size  int
	links []atomic.Pointer[chan message] // links[src*size+dst]

	linkMu sync.Mutex // serializes link creation

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
}

// NewWorld creates a fully connected world of the given size. No channels
// are allocated until a pair of ranks first communicates.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mp: world size must be positive")
	}
	return &World{size: size, links: make([]atomic.Pointer[chan message], size*size)}
}

// link returns the src→dst channel, creating it on first use. The fast path
// is a single atomic load; creation is serialized under linkMu with a
// double-check so exactly one channel ever backs a pair.
func (w *World) link(src, dst int) chan message {
	slot := &w.links[src*w.size+dst]
	if ch := slot.Load(); ch != nil {
		return *ch
	}
	w.linkMu.Lock()
	defer w.linkMu.Unlock()
	if ch := slot.Load(); ch != nil {
		return *ch
	}
	ch := make(chan message, 64)
	slot.Store(&ch)
	return ch
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// BytesSent returns the total payload bytes sent so far (8 per float64).
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the total number of point-to-point messages.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// Run executes f concurrently on every rank and waits for all to finish.
// A panic on any rank is re-raised on the caller after all ranks stop.
func (w *World) Run(f func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
				}
			}()
			f(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mp: rank %d panicked: %v", r, p))
		}
	}
}

// Comm is one rank's endpoint in a World.
type Comm struct {
	world *World
	rank  int
	// pending holds received-but-unmatched messages per source.
	pending [][]message
	// spare holds ring payloads this rank has consumed, for Send to copy
	// into instead of allocating (see recycle).
	spare [][]float64
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send transmits a copy of data to rank dst with the given tag.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mp: Send to invalid rank %d", dst))
	}
	if dst == c.rank {
		panic("mp: Send to self")
	}
	// Count the message before it leaves: a receiver that has it in hand
	// then also sees it in the counters, so a rank that reads them after
	// its last receive sees every message sent to it.
	nbytes := int64(8 * len(data))
	c.world.bytesSent.Add(nbytes)
	c.world.msgsSent.Add(1)
	c.world.link(c.rank, dst) <- message{tag: tag, data: c.payload(data)}
}

// maxSpare bounds a Comm's spare list. A ring step receives one payload
// for each it sends, so between collectives a rank holds about one spare;
// the bound caps what payloads of mixed sizes can leave behind.
const maxSpare = 4

// payload copies data for Send: into the most recent spare that is large
// enough, else into a fresh slice. The message owns the copy, so the
// spare leaves the list.
func (c *Comm) payload(data []float64) []float64 {
	if len(data) > 0 {
		for i := len(c.spare) - 1; i >= 0; i-- {
			if b := c.spare[i]; cap(b) >= len(data) {
				last := len(c.spare) - 1
				c.spare[i], c.spare[last] = c.spare[last], nil
				c.spare = c.spare[:last]
				return append(b[:0], data...)
			}
		}
	}
	return append([]float64(nil), data...)
}

// recycle keeps a received payload that the rank has consumed for a later
// Send to reuse; a full list drops it. Only the ring collectives recycle:
// the others may hand a received payload to their caller, which must
// never find it overwritten.
func (c *Comm) recycle(b []float64) {
	if cap(b) > 0 && len(c.spare) < maxSpare {
		c.spare = append(c.spare, b)
	}
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload. Messages with other tags from src are buffered.
func (c *Comm) Recv(src, tag int) []float64 {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mp: Recv from invalid rank %d", src))
	}
	if src == c.rank {
		panic("mp: Recv from self")
	}
	if c.pending == nil {
		c.pending = make([][]message, c.world.size)
	}
	// Check buffered messages first.
	for i, m := range c.pending[src] {
		if m.tag == tag {
			c.pending[src] = append(c.pending[src][:i], c.pending[src][i+1:]...)
			return m.data
		}
	}
	for {
		m, _ := parallel.Recv(c.world.link(src, c.rank))
		if m.tag == tag {
			return m.data
		}
		c.pending[src] = append(c.pending[src], m)
	}
}

// SendRecv exchanges data with a partner rank, sending sendData with
// sendTag and returning the message received with recvTag. Sends happen
// before receives, so symmetric exchanges do not deadlock on the buffered
// links.
func (c *Comm) SendRecv(partner, sendTag int, sendData []float64, recvTag int) []float64 {
	c.Send(partner, sendTag, sendData)
	return c.Recv(partner, recvTag)
}

// tags used by collectives; user tags should stay below collectiveTagBase.
const (
	collectiveTagBase = 1 << 20
	collectiveTagStep = 1 << 16 // room for per-round offsets within a collective

	tagBcast     = collectiveTagBase + 1*collectiveTagStep
	tagReduce    = collectiveTagBase + 2*collectiveTagStep
	tagRingRS    = collectiveTagBase + 3*collectiveTagStep
	tagRingAG    = collectiveTagBase + 4*collectiveTagStep
	tagRecDouble = collectiveTagBase + 5*collectiveTagStep
	tagGather    = collectiveTagBase + 6*collectiveTagStep
)

// Bcast distributes root's data to every rank using a binomial tree and
// returns each rank's copy.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	p := c.world.size
	if p == 1 {
		return append([]float64(nil), data...)
	}
	// Work in a rotated space where root is rank 0.
	vrank := (c.rank - root + p) % p
	var buf []float64
	if vrank == 0 {
		buf = append([]float64(nil), data...)
	} else {
		// Receive from parent: clear the highest set bit, the inverse of
		// the children rule below.
		parent := (vrank - nextPow2(vrank+1)/2 + root) % p
		buf = c.Recv(parent, tagBcast)
	}
	// Send to children: set each bit above the lowest set bit range.
	for bit := nextPow2(vrank + 1); bit < p; bit *= 2 {
		if vrank+bit < p {
			child := (vrank + bit + root) % p
			c.Send(child, tagBcast, buf)
		}
	}
	return buf
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// Reduce sums data across ranks onto root using a binomial tree. Non-root
// ranks return nil.
func (c *Comm) Reduce(root int, data []float64) []float64 {
	p := c.world.size
	acc := append([]float64(nil), data...)
	if p == 1 {
		return acc
	}
	vrank := (c.rank - root + p) % p
	// Receive from children (reverse of bcast order), then send to parent.
	for bit := 1; bit < p; bit *= 2 {
		if vrank&bit != 0 {
			parent := (vrank&^bit + root) % p
			c.Send(parent, tagReduce+bit, acc)
			return nil
		}
		if vrank+bit < p {
			child := (vrank + bit + root) % p
			recv := c.Recv(child, tagReduce+bit)
			for i := range acc {
				acc[i] += recv[i]
			}
		}
	}
	return acc
}

// AllReduceTree sums data across all ranks via reduce-to-0 plus broadcast.
// Latency-optimal for small messages; moves 2x the ring's bytes for large.
func (c *Comm) AllReduceTree(data []float64) []float64 {
	red := c.Reduce(0, data)
	if c.rank != 0 {
		red = nil
	}
	return c.Bcast(0, red)
}

// AllReduceRing sums data across all ranks with the bandwidth-optimal ring
// algorithm: P-1 reduce-scatter steps followed by P-1 allgather steps, each
// moving 1/P of the vector. This is the algorithm Summit's training stacks
// (NCCL/Horovod) use for large gradients, and the one whose 2(P-1)/P · N/β
// cost the paper's §VI-B communication analysis assumes.
//
// The ring reduces in place: the sum is written into data, and data is
// returned. At world size 1 it returns data untouched, copying nothing.
// Callers that still need their own contribution afterwards pass a copy.
func (c *Comm) AllReduceRing(data []float64) []float64 {
	p := c.world.size
	if p == 1 {
		return data
	}
	n := len(data)
	// Chunk i is data[i*n/p : (i+1)*n/p].
	chunk := func(i int) []float64 { return data[i*n/p : (i+1)*n/p] }
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p

	// Reduce-scatter: after step s, rank r owns the partial sum of chunk
	// (r - s) mod p accumulated over s+1 ranks.
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank - s + p) % p
		recvChunk := (c.rank - s - 1 + p*2) % p
		c.Send(next, tagRingRS+s, chunk(sendChunk))
		in := c.Recv(prev, tagRingRS+s)
		acc := chunk(recvChunk)[:len(in)]
		for i, v := range in {
			acc[i] += v
		}
		c.recycle(in)
	}
	// Allgather: circulate the fully reduced chunks.
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank + 1 - s + p*2) % p
		recvChunk := (c.rank - s + p*2) % p
		c.Send(next, tagRingAG+s, chunk(sendChunk))
		in := c.Recv(prev, tagRingAG+s)
		copy(chunk(recvChunk), in)
		c.recycle(in)
	}
	return data
}

// AllReduceRecursiveDoubling sums data across all ranks by pairwise
// exchange over log2(P) rounds. It requires a power-of-two world size and
// is latency-favourable at small message sizes.
func (c *Comm) AllReduceRecursiveDoubling(data []float64) []float64 {
	p := c.world.size
	if p&(p-1) != 0 {
		panic("mp: recursive doubling needs power-of-two ranks")
	}
	acc := append([]float64(nil), data...)
	for dist := 1; dist < p; dist *= 2 {
		partner := c.rank ^ dist
		in := c.SendRecv(partner, tagRecDouble+dist, acc, tagRecDouble+dist)
		for i := range acc {
			acc[i] += in[i]
		}
	}
	return acc
}

// Gather collects each rank's chunk on root (concatenated by rank). Other
// ranks return nil.
func (c *Comm) Gather(root int, chunk []float64) []float64 {
	if c.rank != root {
		c.Send(root, tagGather, chunk)
		return nil
	}
	p := c.world.size
	out := make([]float64, 0, len(chunk)*p)
	for r := 0; r < p; r++ {
		if r == c.rank {
			out = append(out, chunk...)
		} else {
			out = append(out, c.Recv(r, tagGather)...)
		}
	}
	return out
}
