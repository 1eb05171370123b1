package serve

import "summitscale/internal/units"

// BatchConfig shapes the dynamic micro-batcher.
type BatchConfig struct {
	// MaxBatch closes a batch by size.
	MaxBatch int
	// MaxDelay closes a batch by deadline: no admitted request waits in
	// the open batch longer than this before dispatch is attempted.
	MaxDelay units.Seconds
}

// DefaultBatch is the standard micro-batching policy: up to 64 requests
// or 20 simulated milliseconds, whichever comes first.
func DefaultBatch() BatchConfig {
	return BatchConfig{MaxBatch: 64, MaxDelay: 20e-3}
}

// batcher accumulates admitted requests for one model and closes batches
// by size or deadline. It is a pure function of the admitted-request
// sequence on the simulated clock: batch membership and order depend only
// on (arrival order, MaxBatch, MaxDelay), never on worker scheduling —
// the property the cross-worker determinism suite pins.
type batcher struct {
	cfg     BatchConfig
	pending []Request
	// spare holds the buffers of finished batches: a new batch fills one
	// instead of regrowing from an empty slice.
	spare [][]Request
	// epoch guards deadline timers: closing a batch bumps it, so a timer
	// scheduled for an already-closed batch expires as a no-op.
	epoch int
}

func newBatcher(cfg BatchConfig) *batcher {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxDelay < 0 {
		cfg.MaxDelay = 0
	}
	return &batcher{cfg: cfg}
}

// add appends an admitted request to the open batch. It returns
// (closed, deadline): closed is the full batch when this arrival filled
// it (nil otherwise), and deadline is true when the caller must schedule
// a deadline timer for the batch this request just opened.
func (b *batcher) add(r Request) (closed []Request, deadline bool) {
	if b.pending == nil {
		if n := len(b.spare); n > 0 {
			b.pending, b.spare = b.spare[n-1], b.spare[:n-1]
		}
	}
	b.pending = append(b.pending, r)
	if len(b.pending) >= b.cfg.MaxBatch {
		return b.close(), false
	}
	return nil, len(b.pending) == 1
}

// close seals and returns the open batch (nil when empty).
func (b *batcher) close() []Request {
	if len(b.pending) == 0 {
		return nil
	}
	batch := b.pending
	b.pending = nil
	b.epoch++
	return batch
}

// recycle takes back the buffer of a batch whose completion has run, the
// first moment nothing reads it any more.
func (b *batcher) recycle(batch []Request) {
	b.spare = append(b.spare, batch[:0])
}

// expire handles a deadline timer for the given epoch: it closes the open
// batch only when no size-triggered close intervened since the timer was
// scheduled.
func (b *batcher) expire(epoch int) []Request {
	if epoch != b.epoch {
		return nil
	}
	return b.close()
}
