package mp

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
)

// senderPauses delay each send so that the receiver takes a message
// either while it polls (a spin well inside parallel.Recv's 100 µs
// window) or after it has parked (a sleep well past it).
var senderPauses = []struct {
	name  string
	pause func()
}{
	{"polled", func() {
		for t0 := time.Now(); time.Since(t0) < 10*time.Microsecond; {
		}
	}},
	{"parked", func() { time.Sleep(time.Millisecond) }},
}

// TestTagBufferingBothPaths: on one link, messages of other tags are
// buffered until asked for and each tag's messages arrive in send order,
// whichever way the receiver waited.
func TestTagBufferingBothPaths(t *testing.T) {
	for _, sp := range senderPauses {
		w := NewWorld(2)
		w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				for i := 0; i < 6; i++ {
					sp.pause()
					c.Send(1, i%3, []float64{float64(i)})
				}
				return
			}
			// Ask for tag 2 first, so tags 0 and 1 of the round wait in
			// the pending buffer.
			for round := 0; round < 2; round++ {
				for _, tag := range []int{2, 0, 1} {
					if got, want := c.Recv(0, tag)[0], float64(3*round+tag); got != want {
						t.Errorf("%s: round %d tag %d: payload %v, want %v", sp.name, round, tag, got, want)
					}
				}
			}
		})
	}
}

// TestEightRanksOnTwoProcs: eight ranks share two Ps. Every rank sends
// every other rank two tags interleaved and receives them tag by tag, with
// half the ranks pausing before each round of sends; then the ranks run
// ring allreduces. Each link keeps each tag's order, and every ring result
// has the copying reference ring's bits.
func TestEightRanksOnTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const p, rounds, n = 8, 4, 37
	vs := rankVectors(8, p, n)
	want := make([][]float64, p)
	NewWorld(p).Run(func(c *Comm) { want[c.Rank()] = referenceRing(c, vs[c.Rank()]) })
	for _, sp := range senderPauses {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			r := c.Rank()
			for i := 0; i < rounds; i++ {
				if r%2 == 0 {
					sp.pause()
				}
				for d := 0; d < p; d++ {
					if d != r {
						c.Send(d, i%2, []float64{float64(r), float64(i)})
					}
				}
			}
			for src := 0; src < p; src++ {
				if src == r {
					continue
				}
				for _, tag := range []int{1, 0} {
					for i := tag; i < rounds; i += 2 {
						if got := c.Recv(src, tag); got[0] != float64(src) || got[1] != float64(i) {
							t.Errorf("%s: rank %d from %d tag %d: got %v, want [%d %d]", sp.name, r, src, tag, got, src, i)
						}
					}
				}
			}
			for k := 0; k < 3; k++ {
				if r%2 == 1 {
					sp.pause()
				}
				got := c.AllReduceRing(slices.Clone(vs[r]))
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[r][i]) {
						t.Errorf("%s: rank %d ring %d element %d: %v, reference %v", sp.name, r, k, i, got[i], want[r][i])
						return
					}
				}
			}
		})
	}
}

// TestWarmRingAllocatesNothing: a 2-rank AllReduceRing of train-cnn's
// 1,330-float gradient, once warm, allocates nothing on either rank (each
// Send copies into a payload the rank consumed earlier), and the traffic
// counters read as they would without recycling.
func TestWarmRingAllocatesNothing(t *testing.T) {
	const p, n, runs = 2, 1330, 50
	vs := rankVectors(5, p, n)
	w := NewWorld(p)
	var allocs float64
	w.Run(func(c *Comm) {
		data := vs[c.Rank()]
		c.AllReduceRing(data)
		if c.Rank() == 0 {
			// AllocsPerRun counts the whole process's allocations, so
			// rank 1's Sends inside rank 0's window count too.
			allocs = testing.AllocsPerRun(runs, func() { c.AllReduceRing(data) })
			return
		}
		for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call, then runs
			c.AllReduceRing(data)
		}
	})
	if allocs != 0 {
		t.Errorf("warm 2-rank ring of %d floats: %v allocations per call", n, allocs)
	}
	calls := int64(runs + 2)
	if msgs, bytes := w.MessagesSent(), w.BytesSent(); msgs != 4*calls || bytes != 8*n*2*calls {
		t.Errorf("%d calls: %d messages, %d bytes; want %d, %d", calls, msgs, bytes, 4*calls, 8*n*2*calls)
	}
}

// TestReturnedPayloadsAreNotRecycled: payloads that Bcast and a
// hierarchical member's allreduce return to their caller stay intact
// while the same ranks keep running rings that recycle their payloads.
func TestReturnedPayloadsAreNotRecycled(t *testing.T) {
	const p, n = 4, 24
	vs := rankVectors(9, p, n)
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		r := c.Rank()
		c.AllReduceRing(slices.Clone(vs[r]))
		bcast := c.Bcast(1, vs[1])
		hier := c.AllReduceHierarchical(vs[r], 2)
		keep := [][]float64{slices.Clone(bcast), slices.Clone(hier)}
		for k := 0; k < 4; k++ {
			c.AllReduceRing(slices.Clone(vs[(r+k)%p]))
			c.AllReduceHierarchical(vs[r], 2)
		}
		for i, got := range [][]float64{bcast, hier} {
			if !slices.Equal(got, keep[i]) {
				t.Errorf("rank %d: returned payload %d changed after later rings", r, i)
			}
		}
	})
}
