package mp

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// referenceRing is the copying ring AllReduceRing replaced: it reduces
// into a fresh copy of data and leaves data untouched.
func referenceRing(c *Comm, data []float64) []float64 {
	p := c.world.size
	acc := append([]float64(nil), data...)
	if p == 1 {
		return acc
	}
	n := len(acc)
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank - s + p) % p
		recvChunk := (c.rank - s - 1 + p*2) % p
		c.Send(next, tagRingRS+s, acc[bounds[sendChunk]:bounds[sendChunk+1]])
		in := c.Recv(prev, tagRingRS+s)
		lo := bounds[recvChunk]
		for i := range in {
			acc[lo+i] += in[i]
		}
	}
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank + 1 - s + p*2) % p
		recvChunk := (c.rank - s + p*2) % p
		c.Send(next, tagRingAG+s, acc[bounds[sendChunk]:bounds[sendChunk+1]])
		in := c.Recv(prev, tagRingAG+s)
		copy(acc[bounds[recvChunk]:bounds[recvChunk+1]], in)
	}
	return acc
}

// TestInPlaceRingMatchesCopyingRing: for P = 1–5 and lengths that P does
// not divide (shorter than P too), the in-place ring returns its own
// argument holding the copying ring's result bit for bit, and moves the
// same bytes in the same number of messages.
func TestInPlaceRingMatchesCopyingRing(t *testing.T) {
	for p := 1; p <= 5; p++ {
		for _, n := range []int{1, 2, 7, 13, 101} {
			vs := rankVectors(uint64(p*100+n), p, n)
			for r := range vs {
				vs[r][0] = math.Copysign(0, -1) // -0 + -0 must stay -0
			}
			want := make([][]float64, p)
			ref := NewWorld(p)
			ref.Run(func(c *Comm) { want[c.Rank()] = referenceRing(c, vs[c.Rank()]) })

			var mu sync.Mutex
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				data := vs[c.Rank()]
				got := c.AllReduceRing(data)
				mu.Lock()
				defer mu.Unlock()
				if &got[0] != &data[0] || len(got) != n {
					t.Errorf("p=%d n=%d rank %d: result does not alias the argument", p, n, c.Rank())
					return
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[c.Rank()][i]) {
						t.Errorf("p=%d n=%d rank %d element %d: %v, copying ring %v",
							p, n, c.Rank(), i, got[i], want[c.Rank()][i])
						return
					}
				}
			})
			if w.BytesSent() != ref.BytesSent() || w.MessagesSent() != ref.MessagesSent() {
				t.Errorf("p=%d n=%d: traffic %d B in %d msgs, copying ring %d B in %d",
					p, n, w.BytesSent(), w.MessagesSent(), ref.BytesSent(), ref.MessagesSent())
			}
		}
	}
}

// TestHierarchicalKeepsInput: the one-rank-island hierarchical allreduce
// runs the ring on a copy, so its argument is unchanged.
func TestHierarchicalKeepsInput(t *testing.T) {
	const p, n = 3, 9
	vs := rankVectors(17, p, n)
	orig := make([][]float64, p)
	for r := range vs {
		orig[r] = append([]float64(nil), vs[r]...)
	}
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		c.AllReduceHierarchical(vs[c.Rank()], 1)
	})
	for r := range vs {
		if fmt.Sprint(vs[r]) != fmt.Sprint(orig[r]) {
			t.Errorf("rank %d's input changed: %v, was %v", r, vs[r], orig[r])
		}
	}
}
