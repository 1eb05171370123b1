package ddl

import (
	"errors"
	"fmt"
	"math"

	"summitscale/internal/mp"
)

// Silent-data-corruption injection and detection: the executable
// counterpart of the faults package's SDC event classes. RunResilient
// injects bit flips into gradients (in compute or on the wire) and damage
// into committed checkpoints (flips at rest, torn drains, stale
// replicas), detects the gradient corruptions with configurable guards —
// NaN sentinel, gradient-norm limit, and the ABFT element-sum checksum
// carried through the mp ring allreduce — and recovers by rolling back to
// the newest restorable checkpoint and recomputing. Because injections
// fire exactly once and the optimizer is rebuilt from committed state
// each window, the recomputed trajectory is bit-identical to an
// undisturbed run.

// SDCKind classifies an injected silent corruption.
type SDCKind int

// The injection classes. GradFlip corrupts a rank's local gradient
// before the ABFT guard is sealed (compute-stage corruption: only the
// NaN and norm sentinels can see it); WireFlip corrupts it after the
// guard is sealed (in-transit corruption: exactly what the checksum
// exists to catch). The storage kinds fire against the commit covering
// their step: CkptFlip flips a byte of the tier-0 file at rest,
// TornDrain truncates the tier-1 replica mid-copy, StaleDrain loses the
// drain entirely so deeper tiers keep serving the previous version.
const (
	GradFlip SDCKind = iota
	WireFlip
	CkptFlip
	TornDrain
	StaleDrain
)

// String names the kind.
func (k SDCKind) String() string {
	switch k {
	case GradFlip:
		return "grad-flip"
	case WireFlip:
		return "wire-flip"
	case CkptFlip:
		return "ckpt-flip"
	case TornDrain:
		return "torn-drain"
	case StaleDrain:
		return "stale-replica"
	default:
		return fmt.Sprintf("SDCKind(%d)", int(k))
	}
}

// SDCInjection is one silent corruption to inject. Each injection fires
// exactly once — a window recomputed after detection re-runs clean,
// which is what makes recovery provable against an undisturbed run.
type SDCInjection struct {
	Step int     // training step (gradient kinds) or committed step (storage kinds) it fires at
	Kind SDCKind // what to corrupt
	Rank int     // target rank, for the gradient kinds
	Word int     // flat-gradient index to flip (mod gradient length)
	Bit  int     // bit to flip, 0..63
}

// gradient reports whether the kind corrupts a gradient (rather than a
// committed checkpoint).
func (k SDCKind) gradient() bool { return k == GradFlip || k == WireFlip }

// Guards selects the detection sentinels. The zero value disables all
// detection — the ablation's "detection off" arm. Every sentinel screens
// the reduced gradient, after the collective, so every rank reaches the
// same verdict.
type Guards struct {
	// NaN aborts the step if any element of the reduced gradient is
	// non-finite.
	NaN bool
	// GradNormLimit aborts the step if the reduced gradient's L2 norm
	// exceeds it; zero disables. This is what catches compute-stage
	// exponent flips that stay finite.
	GradNormLimit float64
	// ABFT enforces the element-sum checksum carried through the ring
	// allreduce (mp.AllReduceRingChecked).
	ABFT bool
}

// flipBit returns v with one bit of its IEEE 754 representation flipped.
func flipBit(v float64, bit int) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ 1<<uint(bit&63))
}

// guardedReduce reduces g over the checked ring, whose guard slot every
// guarded run pays whether or not ABFT is armed (the extra element shifts
// the ring's chunk boundaries, so the ablation's legs stay comparable bit
// for bit), and returns the reduced gradient plus the name of the guard
// that tripped ("" = clean). The reduced vector is identical on every
// rank, so the verdict is too.
func guardedReduce(c *mp.Comm, g []float64, guards Guards, tamper mp.TamperFunc) ([]float64, string) {
	reduced, err := c.AllReduceRingChecked(g, tamper)
	if guards.ABFT && err != nil {
		if errors.Is(err, mp.ErrABFTNonFinite) {
			return nil, "nan"
		}
		return nil, "abft"
	}
	if guards.NaN {
		for _, v := range reduced {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, "nan"
			}
		}
	}
	if guards.GradNormLimit > 0 {
		var ss float64
		for _, v := range reduced {
			ss += v * v
		}
		if !(math.Sqrt(ss) <= guards.GradNormLimit) { // catches NaN too
			return nil, "grad-norm"
		}
	}
	return reduced, ""
}
