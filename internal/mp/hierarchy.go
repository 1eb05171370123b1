package mp

import "fmt"

// Tags for the extended collectives.
const (
	tagAlltoAll  = collectiveTagBase + 9*collectiveTagStep
	tagHierLocal = collectiveTagBase + 10*collectiveTagStep
	tagHierCross = collectiveTagBase + 11*collectiveTagStep
)

// AllToAll exchanges equal-length chunks: rank r sends chunk d of its
// input to rank d and returns the concatenation of chunk r from every
// rank. len(data) must be divisible by the world size.
func (c *Comm) AllToAll(data []float64) []float64 {
	p := c.world.size
	if len(data)%p != 0 {
		panic("mp: AllToAll length not divisible by world size")
	}
	chunk := len(data) / p
	out := make([]float64, len(data))
	copy(out[c.rank*chunk:(c.rank+1)*chunk], data[c.rank*chunk:(c.rank+1)*chunk])
	// Pairwise exchange schedule: in round s, exchange with rank^s is not
	// general for non-power-of-two, so use a simple shifted schedule:
	// round s exchanges with (rank+s) and (rank-s).
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		c.Send(dst, tagAlltoAll+s, data[dst*chunk:(dst+1)*chunk])
		copy(out[src*chunk:(src+1)*chunk], c.Recv(src, tagAlltoAll+s))
	}
	return out
}

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
	}
	for s := 0; s < nLeaders-1; s++ {
		sendChunk := (l + 1 - s + nLeaders*2) % nLeaders
		recvChunk := (l - s + nLeaders*2) % nLeaders
		c.Send(next, tagRingAG+s, acc[bounds[sendChunk]:bounds[sendChunk+1]])
		in := c.Recv(prev, tagRingAG+s)
		copy(acc[bounds[recvChunk]:bounds[recvChunk+1]], in)
	}
	return acc
}
