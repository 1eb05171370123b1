package serve

import "summitscale/internal/units"

// AdmissionConfig bounds a model's in-system population (requests queued
// for batching plus batches queued for a replica, not yet in service).
type AdmissionConfig struct {
	// QueueCap is the hard bound; arrivals beyond it get RejectQueueFull.
	QueueCap int
	// ShedAt is the depth at which the shed-load policy starts refusing
	// Bulk-tier requests (RejectShed) to keep interactive latency bounded
	// under degraded capacity. Zero disables shedding.
	ShedAt int
}

// DefaultAdmission returns the standard bounds for a replica pool of the
// given width: capacity for maxBatch requests per replica twice over,
// shedding at half of that.
func DefaultAdmission(replicas, maxBatch int) AdmissionConfig {
	cap := 2 * replicas * maxBatch
	if cap < 8 {
		cap = 8
	}
	return AdmissionConfig{QueueCap: cap, ShedAt: cap / 2}
}

// admitQueue is one model's bounded admission ledger. It is a plain
// deterministic data structure driven by the router's event loop; the
// fuzz target (FuzzAdmissionQueue) exercises its invariants directly:
// depth never exceeds cap, FIFO order is preserved, and every request is
// accounted exactly once as admitted or rejected.
type admitQueue struct {
	cfg   AdmissionConfig
	depth int // requests admitted but not yet in service

	// Book-keeping the report reads.
	requests  int // arrivals routed here (counted by the router)
	admitted  int
	shed      int
	full      int
	peakDepth int
}

// newAdmitQueue validates and builds a ledger.
func newAdmitQueue(cfg AdmissionConfig) *admitQueue {
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1
	}
	if cfg.ShedAt < 0 {
		cfg.ShedAt = 0
	}
	return &admitQueue{cfg: cfg}
}

// offer decides one arrival. It reports admitted on admission (the
// caller owns the request now and must later release it when service
// starts); otherwise it returns the typed rejection, by value, so a
// refusal allocates nothing.
func (q *admitQueue) offer(r Request, now units.Seconds) (rej Rejection, admitted bool) {
	if q.depth >= q.cfg.QueueCap {
		q.full++
		return Rejection{ID: r.ID, Model: r.Model, Tier: r.Tier, Code: RejectQueueFull, At: now}, false
	}
	if q.cfg.ShedAt > 0 && q.depth >= q.cfg.ShedAt && r.Tier == Bulk {
		q.shed++
		return Rejection{ID: r.ID, Model: r.Model, Tier: r.Tier, Code: RejectShed, At: now}, false
	}
	q.depth++
	q.admitted++
	if q.depth > q.peakDepth {
		q.peakDepth = q.depth
	}
	return Rejection{}, true
}

// release retires n admitted requests from the ledger when their batch
// enters service. It panics on over-release — that would mean the router
// double-dispatched a batch.
func (q *admitQueue) release(n int) {
	if n > q.depth {
		panic("serve: admission ledger over-released")
	}
	q.depth -= n
}
