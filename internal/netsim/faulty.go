package netsim

import (
	"fmt"

	"summitscale/internal/units"
)

// Fault-aware collective costs: what a degraded link or a node loss does
// to a synchronous ring allreduce. A ring runs at the pace of its slowest
// member, so one throttled NIC taxes every participant; a member dying
// mid-collective discards the partial reduction and re-forms the ring at
// p-1 before redoing the step.

// RingRebuildTime returns the control-plane cost of re-forming the ring
// after membership changes: a failure-detection timeout plus an
// O(log2 p) agreement round at the point-to-point latency. The detection
// timeout dominates in practice; production stacks run it at hundreds of
// milliseconds to seconds.
func (f Fabric) RingRebuildTime(p int, detectTimeout units.Seconds) units.Seconds {
	if p <= 1 {
		return detectTimeout
	}
	rounds := 0
	for v := p - 1; v > 0; v >>= 1 {
		rounds++
	}
	return detectTimeout + units.Seconds(rounds)*(f.Alpha+f.PointToPoint(0))
}

// RingAllReduceBytes returns the bytes each member injects over one
// p-node ring allreduce of n bytes: 2(p-1) steps of n/p each. Link
// degradation stretches time, never volume, so this is the conserved
// quantity the chaos invariant checker holds degraded collectives to.
func RingAllReduceBytes(p int, n units.Bytes) units.Bytes {
	if p <= 1 {
		return 0
	}
	return units.Bytes(float64(2*(p-1)) * float64(n) / float64(p))
}

// RingAllReduceUnder integrates the ring allreduce against a time-varying
// link environment: the collective starts at `start`, its 2(p-1) steps run
// back to back, and each step moves n/p bytes at the worst link factor
// active at the step's begin instant (factorAt must return values in
// (0, 1]; the whole ring runs at its slowest member's pace). It returns
// the elapsed time and the per-member bytes injected — always exactly
// RingAllReduceBytes(p, n), because a flapping link delays bytes but never
// creates or destroys them. A nil factorAt means a clean fabric, reducing
// to RingAllReduce.
func (f Fabric) RingAllReduceUnder(p int, n units.Bytes, start units.Seconds,
	factorAt func(units.Seconds) float64) (units.Seconds, units.Bytes) {
	if p <= 1 {
		return 0, 0
	}
	chunk := float64(n) / float64(p)
	now := start
	var bytes float64
	for step := 0; step < 2*(p-1); step++ {
		factor := 1.0
		if factorAt != nil {
			factor = factorAt(now)
			if !(factor > 0 && factor <= 1) {
				panic(fmt.Sprintf("netsim: link factor must be in (0,1], got %v at t=%v", factor, now))
			}
		}
		now += f.Alpha + units.Seconds(chunk/(float64(f.Beta)*factor))
		bytes += chunk
	}
	return now - start, units.Bytes(bytes)
}

// AllReduceWithNodeLoss returns the cost of an allreduce during which one
// member dies at fraction atFrac in [0,1) of the way through: the wasted
// partial collective, the detection + ring-rebuild stall, and a full
// redo at p-1 members.
func (f Fabric) AllReduceWithNodeLoss(p int, n units.Bytes, atFrac float64,
	detectTimeout units.Seconds) units.Seconds {
	if p <= 1 {
		return 0
	}
	if !(atFrac >= 0 && atFrac < 1) {
		panic(fmt.Sprintf("netsim: loss fraction must be in [0,1), got %v", atFrac))
	}
	wasted := units.Seconds(atFrac * float64(f.RingAllReduce(p, n)))
	return wasted + f.RingRebuildTime(p-1, detectTimeout) + f.RingAllReduce(p-1, n)
}
