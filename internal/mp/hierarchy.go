package mp

import "fmt"

// Tags for the hierarchical allreduce.
const (
	tagHierLocal = collectiveTagBase + 10*collectiveTagStep
	tagHierCross = collectiveTagBase + 11*collectiveTagStep
)

// AllReduceHierarchical sums data using a two-level scheme that mirrors
// Summit's NVLink-island topology: ranks are grouped into islands of
// groupSize consecutive ranks; each island reduces onto its leader, the
// leaders ring-allreduce across islands, and leaders broadcast back.
// This is the structure production stacks use so that only one rank per
// node touches the injection link. The world size must be divisible by
// groupSize.
func (c *Comm) AllReduceHierarchical(data []float64, groupSize int) []float64 {
	p := c.world.size
	if groupSize <= 0 || p%groupSize != 0 {
		panic(fmt.Sprintf("mp: world %d not divisible by group size %d", p, groupSize))
	}
	if groupSize == 1 {
		return c.AllReduceRing(append([]float64(nil), data...))
	}
	leader := c.rank / groupSize * groupSize
	acc := append([]float64(nil), data...)

	if c.rank != leader {
		// Member: send to leader, await the result.
		c.Send(leader, tagHierLocal, acc)
		return c.Recv(leader, tagHierCross)
	}
	// Leader: reduce the island.
	for m := leader + 1; m < leader+groupSize; m++ {
		in := c.Recv(m, tagHierLocal)
		for i := range acc {
			acc[i] += in[i]
		}
	}
	// Ring across leaders.
	nLeaders := p / groupSize
	if nLeaders > 1 {
		acc = c.ringAmongLeaders(acc, groupSize, nLeaders)
	}
	// Broadcast back to the island.
	for m := leader + 1; m < leader+groupSize; m++ {
		c.Send(m, tagHierCross, acc)
	}
	return acc
}

// ringAmongLeaders runs the ring allreduce over the leader ranks only
// (leader index l = rank/groupSize).
func (c *Comm) ringAmongLeaders(acc []float64, groupSize, nLeaders int) []float64 {
	l := c.rank / groupSize
	next := ((l + 1) % nLeaders) * groupSize
	prev := ((l - 1 + nLeaders) % nLeaders) * groupSize
	n := len(acc)
	bounds := make([]int, nLeaders+1)
	for i := 0; i <= nLeaders; i++ {
		bounds[i] = i * n / nLeaders
	}
	for s := 0; s < nLeaders-1; s++ {
		sendChunk := (l - s + nLeaders*2) % nLeaders
		recvChunk := (l - s - 1 + nLeaders*2) % nLeaders
		c.Send(next, tagRingRS+s, acc[bounds[sendChunk]:bounds[sendChunk+1]])
		in := c.Recv(prev, tagRingRS+s)
		lo := bounds[recvChunk]
		for i := range in {
			acc[lo+i] += in[i]
		}
		c.recycle(in)
	}
	for s := 0; s < nLeaders-1; s++ {
		sendChunk := (l + 1 - s + nLeaders*2) % nLeaders
		recvChunk := (l - s + nLeaders*2) % nLeaders
		c.Send(next, tagRingAG+s, acc[bounds[sendChunk]:bounds[sendChunk+1]])
		in := c.Recv(prev, tagRingAG+s)
		copy(acc[bounds[recvChunk]:bounds[recvChunk+1]], in)
		c.recycle(in)
	}
	return acc
}
