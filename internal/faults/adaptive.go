// Online adaptive checkpoint-interval control: instead of solving
// Young/Daly once from a prior MTBF and riding that cadence to the end,
// the controller re-estimates the system MTBF from the failure history the
// run has actually observed and re-solves the Daly optimum at every
// checkpoint-window boundary. Under nonstationary failure regimes — a
// cascade burning through a rack, an infant-mortality window after
// maintenance — the static policy commits far too rarely and bleeds lost
// work; the adaptive policy tightens its cadence as soon as the evidence
// arrives and relaxes it again when the storm passes.
package faults

import (
	"fmt"

	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// adaptiveInterval solves the controller's cadence for checkpoint cost
// delta given wall seconds of history holding failures observed faults.
// The prior system-MTBF estimate counts as one already-observed failure
// at exactly its mean, so the posterior MTBF is
// (wall + prior)/(failures + 1). Commits cannot be denser than the write
// itself, so the interval never falls below delta.
func adaptiveInterval(prior, delta, wall units.Seconds, failures int) units.Seconds {
	post := (wall + prior) / units.Seconds(failures+1)
	iv := DalyInterval(delta, post)
	if iv < delta {
		iv = delta
	}
	return iv
}

// SimulateAdaptive replays the run against the trace's fatal failures with
// the interval re-solved at every segment start from the prior
// system-MTBF estimate (e.g. the hardware rate from the machine
// description) and the failures seen so far — the adaptive counterpart of
// Simulate, recording the same span and counter stream into ob (which may
// be nil). The shape must have a positive checkpoint cost (Daly needs
// one).
func SimulateAdaptive(shape RunShape, prior units.Seconds, trace *Trace, ob *obs.Observer) Outcome {
	if err := shape.Validate(); err != nil {
		panic(err.Error())
	}
	if shape.CheckpointCost <= 0 {
		panic("faults: adaptive control needs a positive checkpoint cost")
	}
	if prior <= 0 {
		panic(fmt.Sprintf("faults: adaptive policy needs a positive prior MTBF, got %v", float64(prior)))
	}
	return replay(shape, 0, prior, trace.FailureTimes(), ob)
}
