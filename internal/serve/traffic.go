package serve

import (
	"fmt"
	"math"
	"sort"

	"summitscale/internal/stats"
	"summitscale/internal/units"
)

// Burst is a transient load spike multiplying the arrival rate.
type Burst struct {
	At     units.Seconds
	For    units.Seconds
	Factor float64
}

// TrafficSpec parameterizes the synthetic workload: a large simulated
// user population whose aggregate request stream follows a diurnal curve
// with superimposed bursts. Sample > 1 serves a deterministic 1-in-Sample
// thinning of the population's stream, for configurations whose full
// request volume would swamp a discrete-event loop.
type TrafficSpec struct {
	// Users is the simulated population size (informational + rate basis).
	Users int
	// RequestsPerUserDay is each user's mean daily request count.
	RequestsPerUserDay float64
	// Sample keeps 1 request in Sample (>= 1) from the population stream.
	Sample int
	// Horizon is the simulated serving window.
	Horizon units.Seconds
	// DayLength is the diurnal period (compressed days keep experiment
	// horizons short); zero disables the diurnal component.
	DayLength units.Seconds
	// DiurnalAmp in [0,1) scales the sinusoidal day/night swing.
	DiurnalAmp float64
	// Bursts are transient rate spikes (product of overlapping factors).
	Bursts []Burst
	// InteractiveFrac is the probability a request is Interactive.
	InteractiveFrac float64
}

// DefaultTraffic is the standard serving workload: one million simulated
// users issuing ~21.6 requests/day each (250 req/s aggregate), served in
// full (Sample 1) over a one-minute window spanning one compressed
// diurnal cycle with two bursts — enough load that micro-batching is the
// difference between absorbing the bursts and collapsing. The window is
// deliberately short: the dynamics are set by the arrival *rates* against
// replica capacity, not by how long the process runs, and the experiment
// registry replays this workload several times per full run.
func DefaultTraffic() TrafficSpec {
	return TrafficSpec{
		Users:              1_000_000,
		RequestsPerUserDay: 21.6, // 1e6 users x 21.6/day = 250 req/s aggregate
		Sample:             1,
		Horizon:            units.Minute,
		DayLength:          units.Minute,
		DiurnalAmp:         0.6,
		// Both bursts ride the rising half of the diurnal cycle (sin > 0
		// for the first half-minute), so their factors compound with the
		// day-peak rather than cancelling into the overnight trough.
		Bursts: []Burst{
			{At: 10, For: 10, Factor: 2.5},
			{At: 24, For: 8, Factor: 4},
		},
		InteractiveFrac: 0.35,
	}
}

// MeanRPS is the population's mean aggregate request rate (before
// sampling, without bursts).
func (s TrafficSpec) MeanRPS() float64 {
	return float64(s.Users) * s.RequestsPerUserDay / float64(units.Day)
}

// sampledMeanRate is the simulated stream's mean arrival rate.
func (s TrafficSpec) sampledMeanRate() float64 {
	sample := s.Sample
	if sample < 1 {
		sample = 1
	}
	return s.MeanRPS() / float64(sample)
}

// RateAt returns the instantaneous sampled arrival rate at time t:
// diurnal curve times every active burst factor.
func (s TrafficSpec) RateAt(t units.Seconds) float64 {
	rate := s.sampledMeanRate()
	if s.DayLength > 0 && s.DiurnalAmp > 0 {
		rate *= 1 + s.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(s.DayLength))
	}
	for _, b := range s.Bursts {
		if t >= b.At && t < b.At+b.For && b.Factor > 0 {
			rate *= b.Factor
		}
	}
	return rate
}

// peakRate bounds RateAt over the horizon, for thinning.
func (s TrafficSpec) peakRate() float64 {
	rate := s.sampledMeanRate() * (1 + s.DiurnalAmp)
	worst := 1.0
	for _, b := range s.Bursts {
		if b.Factor > worst {
			worst = b.Factor
		}
	}
	return rate * worst
}

// featureSlab is how many feature values one allocation holds: Generate
// carves request rows from slabs of this size rather than allocating
// each row on its own.
const featureSlab = 4096

// Generate samples the workload at the given seed across the model
// fleet. Arrivals come from an inhomogeneous Poisson process (thinning
// against the peak rate); each request's model, tier, and features draw
// from a per-request RNG derived from (seed, ID), so the content of
// request k is independent of how many requests precede it. The returned
// slice is in arrival order.
func (s TrafficSpec) Generate(seed uint64, models []Model) ([]Request, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("serve: traffic needs at least one model")
	}
	if s.Horizon <= 0 {
		return nil, fmt.Errorf("serve: traffic horizon must be positive, got %v", float64(s.Horizon))
	}
	peak := s.peakRate()
	if !(peak > 0) || math.IsInf(peak, 0) || math.IsNaN(peak) {
		return nil, fmt.Errorf("serve: traffic peak rate must be positive and finite, got %v", peak)
	}
	arrivalRNG := stats.NewRNG(seed)
	var reqs []Request
	var slab []float64 // feature rows are carved from shared slabs
	var id uint64
	for t := units.Seconds(0); ; {
		t += units.Seconds(arrivalRNG.ExpFloat64() / peak)
		if t >= s.Horizon {
			break
		}
		if arrivalRNG.Float64()*peak > s.RateAt(t) {
			continue // thinned: the instantaneous rate is below peak here
		}
		id++
		rng := stats.NewRNG(seed ^ (id * 0x9e3779b97f4a7c15))
		m := models[rng.Intn(len(models))]
		tier := Bulk
		if rng.Float64() < s.InteractiveFrac {
			tier = Interactive
		}
		dim := m.FeatureDim()
		if len(slab) < dim {
			slab = make([]float64, max(featureSlab, dim))
		}
		features := slab[:dim:dim]
		slab = slab[dim:]
		for j := range features {
			features[j] = rng.NormFloat64()
		}
		reqs = append(reqs, Request{
			ID: id, Model: m.Name(), Tier: tier, Arrival: t, Features: features,
		})
	}
	return reqs, nil
}

// Census summarizes a workload for reports.
func Census(reqs []Request) string {
	perModel := map[string]int{}
	interactive := 0
	for _, r := range reqs {
		perModel[r.Model]++
		if r.Tier == Interactive {
			interactive++
		}
	}
	names := make([]string, 0, len(perModel))
	for n := range perModel {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%d requests (%d interactive, %d bulk)", len(reqs), interactive, len(reqs)-interactive)
	for _, n := range names {
		out += fmt.Sprintf(", %s %d", n, perModel[n])
	}
	return out
}
