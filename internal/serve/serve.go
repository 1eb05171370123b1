// Package serve is the surrogate-inference serving layer: "Summit as a
// service". The paper's workflows couple simulations to ML surrogates
// (§III-C, internal/surrogate), and Brewer et al. (*Scalable AI for
// Science*) name large-scale inference serving as a first-class method
// for leadership machines; MLPerf HPC argues such serving must be held
// to throughput/latency targets rather than one-off runs. This package
// provides the pieces and the measurement harness:
//
//   - a request router (router.go) that drives the existing surrogate
//     models (ridge / random forest) and an extracted-weight MLP through
//     the persistent worker pool (internal/parallel);
//   - dynamic micro-batching (batcher.go): batches close when they reach
//     MaxBatch or when the oldest member has waited MaxDelay on the
//     simulated clock — batch assembly is a pure function of the arrival
//     stream, never of worker scheduling, so responses and traces are
//     byte-identical at any inference-worker count;
//   - admission control (admission.go): bounded per-model queues with
//     typed rejection, plus a shed-load degradation policy that drops
//     bulk-tier requests before interactive latency collapses;
//   - per-model replica pools (replica.go) sized from the platform
//     registry and priced through internal/perf's roofline model, so
//     p50/p99 latencies are analytic functions of (platform, load);
//   - a seeded synthetic traffic generator (traffic.go): diurnal +
//     bursty load sampled from a population of millions of simulated
//     users, deterministic per seed.
//
// Everything runs on the simulated clock (internal/des); wall time never
// enters a report. Determinism rules match the rest of the repository:
// a Report is a pure function of (config, seed), and the inference
// kernels shard rows over the worker pool with disjoint writes, so the
// numeric outputs are bit-identical at any pool width.
package serve

import (
	"sort"

	"summitscale/internal/units"
)

// Tier classifies a request's latency sensitivity. The shed-load policy
// protects Interactive traffic by rejecting Bulk first.
type Tier int

const (
	// Interactive requests sit on a human or simulation critical path
	// (steering decisions, docking-score lookups mid-campaign).
	Interactive Tier = iota
	// Bulk requests are throughput work (offline rescoring sweeps); they
	// tolerate rejection and retry.
	Bulk
)

// String names the tier.
func (t Tier) String() string {
	if t == Interactive {
		return "interactive"
	}
	return "bulk"
}

// Request is one inference call.
type Request struct {
	// ID is unique within a workload; ties on Arrival break by ID so a
	// shuffled request slice always replays identically.
	ID      uint64
	Model   string
	Tier    Tier
	Arrival units.Seconds
	// Features is the model input row.
	Features []float64
}

// Response is one served prediction.
type Response struct {
	ID        uint64
	Model     string
	Tier      Tier
	Value     float64
	Arrival   units.Seconds
	Done      units.Seconds
	BatchSize int
	Replica   int
}

// Latency is the request's in-system time.
func (r Response) Latency() units.Seconds { return r.Done - r.Arrival }

// RejectCode is the typed reason a request was refused admission.
type RejectCode int

const (
	// RejectQueueFull: the model's bounded queue was at capacity.
	RejectQueueFull RejectCode = iota
	// RejectShed: the shed-load policy dropped a bulk request to protect
	// interactive latency under degraded capacity.
	RejectShed
	// RejectUnknownModel: no replica pool serves the requested model.
	RejectUnknownModel
)

// String names the rejection code.
func (c RejectCode) String() string {
	switch c {
	case RejectQueueFull:
		return "queue-full"
	case RejectShed:
		return "shed"
	default:
		return "unknown-model"
	}
}

// Rejection is one refused request.
type Rejection struct {
	ID    uint64
	Model string
	Tier  Tier
	Code  RejectCode
	At    units.Seconds
}

// quantile returns the q-quantile of a sorted ascending sample using the
// same nearest-rank rule as internal/obs, so serving reports and metrics
// summaries agree. An empty sample yields zero.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// sortRequests orders a workload canonically: by arrival time, ties by
// ID. Run reads its input through this, which is what makes a shuffled
// request slice produce byte-identical responses and traces. Input
// already in that order, as Generate returns it, comes back as is;
// anything else comes back as a sorted copy, so the caller's slice is
// never reordered. IDs are unique, so the order is total and the
// shortcut cannot change it.
func sortRequests(reqs []Request) []Request {
	less := func(a, b *Request) bool {
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	}
	sorted := true
	for i := 1; i < len(reqs) && sorted; i++ {
		sorted = !less(&reqs[i], &reqs[i-1])
	}
	if sorted {
		return reqs
	}
	out := append([]Request(nil), reqs...)
	sort.Slice(out, func(i, j int) bool { return less(&out[i], &out[j]) })
	return out
}
