package mp

import (
	"errors"
	"fmt"
	"math"
)

// DefaultABFTTol is the relative tolerance of AllReduceRingChecked's
// verdict. The guard and the payload sum are the same quantity
// accumulated in different orders, so they disagree only by
// floating-point reassociation — parts in 1e12 of the magnitude for
// gradient-sized vectors — while a single flipped mantissa bit in a
// normal-range value shifts the sum by parts in 1e3 or more.
const DefaultABFTTol = 1e-9

// The two verdicts of a tripped ABFT guard, wrapped with %w in the error
// AllReduceRingChecked returns: the reduced payload or guard went
// non-finite, or they are finite and disagree beyond DefaultABFTTol.
var (
	ErrABFTNonFinite = errors.New("mp: abft guard non-finite")
	ErrABFTMismatch  = errors.New("mp: abft checksum mismatch")
)

// TamperFunc mutates one rank's in-flight contribution to a checked
// collective. Fault injection calls it after the guard element is
// computed, so the damage it does is exactly what the guard must catch.
type TamperFunc func(rank int, data []float64)

// AllReduceRingChecked is AllReduceRing with an ABFT-style element-sum
// guard carried through the reduction. Each rank appends the sum of its
// local vector as one extra element; the ring reduces payload and guard
// together, and afterwards the reduced guard must equal the sum of the
// reduced payload to within DefaultABFTTol. Corruption of any payload
// element on any rank — in local compute before the collective or on the
// wire via tamper — breaks that identity and is reported on every rank,
// because the reduced vector (and so the mismatch) is identical
// everywhere.
//
// It returns the reduced payload whatever the verdict, so a caller that
// does not enforce the guard still gets the guard slot's arithmetic: the
// extra element shifts the ring's chunk boundaries. The error is nil, or
// wraps ErrABFTNonFinite or ErrABFTMismatch.
//
// The guard adds one element to a ring that moves 2(P-1)/P · N elements
// per rank: overhead ~2/N, unmeasurable at gradient sizes. tamper may be
// nil.
func (c *Comm) AllReduceRingChecked(data []float64, tamper TamperFunc) ([]float64, error) {
	guarded := make([]float64, len(data)+1)
	copy(guarded, data)
	var local float64
	for _, v := range data {
		local += v
	}
	guarded[len(data)] = local
	if tamper != nil {
		// Tamper after the guard is sealed: the hook models corruption the
		// checksum must detect, so it may touch only the payload span.
		tamper(c.rank, guarded[:len(data)])
	}
	red := c.AllReduceRing(guarded)
	payload, guard := red[:len(data)], red[len(data)]

	var sum float64
	for _, v := range payload {
		sum += v
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) || math.IsNaN(guard) || math.IsInf(guard, 0) {
		return payload, fmt.Errorf("%w (sum %v, guard %v)", ErrABFTNonFinite, sum, guard)
	}
	scale := math.Abs(sum) + math.Abs(guard)
	if scale < 1 {
		scale = 1
	}
	if math.Abs(sum-guard) > DefaultABFTTol*scale {
		return payload, fmt.Errorf("%w: payload sums to %g, guard says %g (rel err %.3g, tol %.3g)",
			ErrABFTMismatch, sum, guard, math.Abs(sum-guard)/scale, DefaultABFTTol)
	}
	return payload, nil
}
