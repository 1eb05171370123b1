// Package ddl implements distributed deep-learning training over the
// internal/mp message-passing substrate: synchronous data parallelism with
// ring-allreduce gradient averaging, gradient accumulation (Blanchard et
// al.), half-precision gradient compression (mixed-precision allreduce)
// and the one-step gradient lag of Kurth et al.
//
// Ranks are goroutines; gradients really move through channels byte for
// byte, so replica-consistency and large-batch-equivalence properties are
// testable rather than assumed.
//
// A Rank that is alone in its world and averages one micro-batch, with
// no compression, lag or custom collective, hands the optimizer its
// parameters' own gradients: the reduced gradient is the gradient
// itself. Otherwise it flattens its gradients into one of two persistent
// buffers, and the ring reduces that buffer in place. Under the gradient
// lag a step flattens into the buffer the previous step did not use, so
// the pending reduced gradient it is about to apply is never
// overwritten; without the lag one buffer serves every step.
package ddl

import (
	"fmt"

	"summitscale/internal/autograd"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/obs"
	"summitscale/internal/optim"
	"summitscale/internal/parallel"
	"summitscale/internal/tensor"
	"summitscale/internal/units"
)

// gradShardMin is the flat-gradient length above which the per-step
// scale and FP16-compression passes shard across the persistent worker
// pool. Both passes are elementwise, so sharding cannot change bits;
// below the threshold they run inline with no dispatch and no closure
// allocation (the bench models' gradients are a few thousand elements).
const (
	gradShardMin   = 1 << 15
	gradShardGrain = 1 << 13
)

// FlattenGradsInto copies all parameter gradients into one contiguous
// vector in parameter order, writing into dst when its capacity suffices,
// so a training loop flattens into one persistent buffer instead of
// allocating a gradient-sized vector every step. It returns the filled
// (possibly newly grown) buffer; segments for nil gradients are zeroed.
func FlattenGradsInto(dst []float64, params []nn.Param) []float64 {
	n := 0
	for _, p := range params {
		n += p.Value.Data.Size()
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	off := 0
	for _, p := range params {
		sz := p.Value.Data.Size()
		if p.Value.Grad != nil {
			copy(dst[off:off+sz], p.Value.Grad.Data())
		} else {
			clear(dst[off : off+sz])
		}
		off += sz
	}
	return dst
}

// UnflattenGrads writes flat back into the parameters' gradients,
// allocating them if needed.
func UnflattenGrads(params []nn.Param, flat []float64) {
	off := 0
	for _, p := range params {
		sz := p.Value.Data.Size()
		if p.Value.Grad == nil {
			p.Value.Grad = tensor.New(p.Value.Data.Shape()...)
		}
		copy(p.Value.Grad.Data(), flat[off:off+sz])
		off += sz
	}
	if off != len(flat) {
		panic(fmt.Sprintf("ddl: flat gradient length %d vs parameters %d", len(flat), off))
	}
}

// FlattenParams copies all parameter values into one vector.
func FlattenParams(params []nn.Param) []float64 {
	n := 0
	for _, p := range params {
		n += p.Value.Data.Size()
	}
	out := make([]float64, n)
	off := 0
	for _, p := range params {
		sz := p.Value.Data.Size()
		copy(out[off:off+sz], p.Value.Data.Data())
		off += sz
	}
	return out
}

// Compression selects the gradient wire format for the allreduce.
type Compression int

// Compression modes.
const (
	// NoCompression sends float64 gradients as-is.
	NoCompression Compression = iota
	// FP16 rounds gradients to IEEE half precision before the allreduce,
	// modelling Summit's mixed-precision gradient exchange (half the bytes
	// of fp32; here it manifests as quantization, since the substrate
	// always moves float64 slots).
	FP16
)

// Config describes a data-parallel training setup.
type Config struct {
	// AccumSteps is the number of micro-batches accumulated locally before
	// each allreduce (gradient accumulation).
	AccumSteps int
	// Compression selects the gradient wire format.
	Compression Compression
	// GradLag applies the previous step's allreduced gradient instead of
	// the current one, overlapping communication with computation at the
	// cost of one step of staleness (Kurth et al.).
	GradLag bool
	// Overlap actually pipelines the lagged allreduce with compute: the
	// collective is launched asynchronously and runs during the NEXT
	// step's backward pass, being retired just before its result is
	// applied. Requires GradLag (without the lag there is no window to
	// hide the communication in) and is bit-identical to synchronous
	// GradLag — same reduction arithmetic, same application schedule.
	// Call Rank.Flush before using the Comm for anything else.
	Overlap bool
	// Allreduce selects the collective; nil means ring. A collective that
	// returns nil withholds this step's update: Step applies nothing (the
	// optimizer does not run) and still returns the loss. Under GradLag
	// the withheld result is the one skipped a step later.
	Allreduce func(c *mp.Comm, grads []float64) []float64
	// Obs, if non-nil, receives step counters (ddl.steps,
	// ddl.allreduce.bytes) and — when StepTime is positive — one span per
	// executed step on the rank's track of the simulated step clock.
	Obs *obs.Observer
	// StepTime is the simulated duration of one training step, used only
	// to place step spans on the simulated clock (step k of a rank runs in
	// [k·StepTime, (k+1)·StepTime)). Zero disables step spans.
	StepTime units.Seconds
}

// Rank is the per-goroutine training state.
type Rank struct {
	Comm   *mp.Comm
	Model  nn.Module
	Opt    optim.Optimizer
	Config Config

	lagged  []float64         // pending gradient when GradLag is on
	pending *mp.PendingReduce // in-flight collective when Overlap is on
	// flat holds the two persistent flat-gradient buffers. The ring
	// allreduce reduces in place, so the reduced gradient may alias the
	// buffer it was flattened into; under GradLag a step flattens into the
	// buffer the previous step did not use, which never holds the pending
	// reduced gradient that this step applies. Without the lag only
	// flat[0] is used.
	flat [2][]float64
	// arena is the rank's step-scoped tensor allocator (see Arena); it is
	// rewound at the top of every Step, so after one warm-up step the
	// forward/backward graph performs no tensor heap allocation.
	arena *tensor.Arena
	// params caches Model.Params(), taken once by NewRank: layer modules
	// rebuild the slice (and its name strings) on every call, which costs
	// dozens of allocations per step when taken twice per Step. Parameter
	// sets are stable for the life of a Rank. size is their element count,
	// the length of a flat gradient.
	params []nn.Param
	size   int
	step   int
}

// Arena returns the rank's step-scoped scratch arena, creating it on first
// use. A training loop passes it to autograd.ConstantIn when wrapping the
// input batch so that the whole forward/backward graph — activations,
// backward temporaries, and first-use parameter gradients — is bump-
// allocated and recycled at the next Step. The arena is valid for exactly
// one step: Step resets it before building the next graph.
func (r *Rank) Arena() *tensor.Arena {
	if r.arena == nil {
		r.arena = tensor.NewArena()
	}
	return r.arena
}

// NewRank wires a model and optimizer to a communicator.
func NewRank(c *mp.Comm, model nn.Module, opt optim.Optimizer, cfg Config) *Rank {
	if cfg.AccumSteps <= 0 {
		cfg.AccumSteps = 1
	}
	if cfg.Overlap && !cfg.GradLag {
		panic("ddl: Overlap requires GradLag — without the one-step lag there is no compute to hide the allreduce behind")
	}
	r := &Rank{Comm: c, Model: model, Opt: opt, Config: cfg, params: model.Params()}
	for _, p := range r.params {
		r.size += p.Value.Data.Size()
	}
	return r
}

// HierarchicalAllreduce returns a Config.Allreduce that routes the gradient
// exchange through mp's two-level island collective (intra-island reduce to
// a leader, ring among leaders, broadcast back), matching Summit's
// NVLink-island topology. Compose with Overlap to pipeline the whole
// hierarchy with backward compute.
func HierarchicalAllreduce(groupSize int) func(*mp.Comm, []float64) []float64 {
	return func(c *mp.Comm, g []float64) []float64 {
		return c.AllReduceHierarchical(g, groupSize)
	}
}

// Flush retires an in-flight overlap collective without applying its
// result — the same fate synchronous GradLag gives the final step's
// reduced gradient. It must be called after the last Step and before the
// rank's Comm is used for anything else (gathers, consistency checks):
// the helper goroutine owns the Comm until the collective completes.
func (r *Rank) Flush() {
	if r.pending != nil {
		r.pending.Wait()
		r.pending = nil
	}
}

// Step runs one training step: lossFn must zero nothing itself — it builds
// the loss graph for this rank's micro-batch (called AccumSteps times) and
// returns the loss value. Step returns the mean loss across this rank's
// micro-batches for this step. Gradients are averaged over all ranks and
// micro-batches before the optimizer update. A step whose applied result
// is nil — the lagged first step, or a collective that withheld its
// result — updates nothing.
func (r *Rank) Step(lossFn func(micro int) *autograd.Value) float64 {
	params := r.params
	var lossSum float64
	// Recycle last step's graph memory before dropping the gradients that
	// point into it: nothing may touch arena-backed tensors between these
	// two calls.
	if r.arena != nil {
		r.arena.Reset()
	}
	for _, p := range params {
		p.Value.ZeroGrad()
	}
	for m := 0; m < r.Config.AccumSteps; m++ {
		loss := lossFn(m)
		loss.Backward(nil)
		lossSum += loss.Data.At(0)
	}
	if r.inPlace() {
		// The optimizer reads the gradients where backward left them. A
		// parameter outside the loss graph gets the zero gradient
		// UnflattenGrads would give it: LAMB and SGD still decay it.
		for _, p := range params {
			if p.Value.Grad == nil {
				p.Value.Grad = tensor.New(p.Value.Data.Shape()...)
			}
		}
		r.observe()
		r.Opt.Step(params)
		r.step++
		return lossSum / float64(r.Config.AccumSteps)
	}
	// Overlap mode: the previous step's collective has been running behind
	// the backward pass above, reducing the other flat buffer. Retire it
	// now: its result is this step's update, and the Comm must carry one
	// outstanding collective at a time, which the tag space and receive
	// buffering require.
	var lagApply []float64
	if r.pending != nil {
		lagApply = r.pending.Wait()
		r.pending = nil
	}
	buf := 0
	if r.Config.GradLag {
		buf = r.step % 2
	}
	r.flat[buf] = FlattenGradsInto(r.flat[buf], params)
	flat := r.flat[buf]
	// Average over world size and micro-batches.
	switch scale := 1 / float64(r.Comm.Size()*r.Config.AccumSteps); {
	case scale == 1:
		// One rank and one micro-batch: ×1 leaves every bit as it is.
	case len(flat) >= gradShardMin:
		parallel.Shared().RunRange(len(flat), gradShardGrain, func(lo, hi int) {
			scaleRange(flat, scale, lo, hi)
		})
	default:
		scaleRange(flat, scale, 0, len(flat))
	}
	if r.Config.Compression == FP16 {
		if len(flat) >= gradShardMin {
			parallel.Shared().RunRange(len(flat), gradShardGrain, func(lo, hi int) {
				fp16Range(flat, lo, hi)
			})
		} else {
			fp16Range(flat, 0, len(flat))
		}
	}
	allreduce := r.Config.Allreduce
	if allreduce == nil {
		allreduce = func(c *mp.Comm, g []float64) []float64 { return c.AllReduceRing(g) }
	}
	// The collective may reduce flat in place and return it, or return a
	// fresh vector; nothing below depends on which.
	var reduced []float64
	if r.Config.Overlap {
		// Launch asynchronously; the collective executes while the next
		// step's backward pass runs and is consumed as lagApply then.
		r.pending = r.Comm.AllReduceAsync(flat, allreduce)
	} else {
		reduced = allreduce(r.Comm, flat)
	}
	r.observe()

	apply := reduced
	if r.Config.GradLag {
		if r.Config.Overlap {
			apply = lagApply
		} else {
			apply, r.lagged = r.lagged, reduced
		}
	}
	if apply == nil {
		// The lag's first step, or a withheld result: nothing to apply.
		r.step++
		return lossSum / float64(r.Config.AccumSteps)
	}
	UnflattenGrads(params, apply)
	r.Opt.Step(params)
	r.step++
	return lossSum / float64(r.Config.AccumSteps)
}

// inPlace reports whether a step's reduced gradient is its gradient
// itself: one rank averaging one micro-batch (a scale of 1), no
// compression, no lag and the default ring, which is a no-op at one
// rank. Step then skips the flatten, the ring and the unflatten.
func (r *Rank) inPlace() bool {
	c := r.Config
	return r.Comm.Size() == 1 && c.AccumSteps == 1 && c.Compression == NoCompression &&
		!c.GradLag && c.Allreduce == nil
}

// observe records a step's counters and, with a StepTime, its spans.
// The allreduce byte count is the flat gradient's size, whether or not
// the step built one.
func (r *Rank) observe() {
	gradBytes := int64(r.size * 8)
	r.Config.Obs.Inc("ddl.steps")
	r.Config.Obs.Add("ddl.allreduce.bytes", gradBytes)
	if r.Config.StepTime > 0 {
		track := fmt.Sprintf("rank-%d", r.Comm.Rank())
		at := units.Seconds(r.step) * r.Config.StepTime
		r.Config.Obs.Span(track, "train", "step", at, r.Config.StepTime,
			obs.Num("step", float64(r.step)))
		// The substrate moves real bytes, not simulated time, so the
		// allreduce is marked as a zero-cost phase at the step boundary
		// carrying its byte volume.
		r.Config.Obs.Span(track, "comm", "allreduce", at+r.Config.StepTime, 0,
			obs.Num("bytes", float64(gradBytes)))
	}
}

// ReplicasConsistent gathers every rank's flattened parameters on rank 0
// and reports (on rank 0) whether all replicas agree within tol. Other
// ranks return true.
func ReplicasConsistent(c *mp.Comm, model nn.Module, tol float64) bool {
	flat := FlattenParams(model.Params())
	all := c.Gather(0, flat)
	if c.Rank() != 0 {
		return true
	}
	n := len(flat)
	for r := 1; r < c.Size(); r++ {
		for i := 0; i < n; i++ {
			d := all[r*n+i] - all[i]
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// scaleRange multiplies elements [lo, hi) of flat by scale.
func scaleRange(flat []float64, scale float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		flat[i] *= scale
	}
}

// fp16Range rounds elements [lo, hi) of flat through IEEE half precision.
func fp16Range(flat []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		flat[i] = float64(toFP16(float32(flat[i])))
	}
}

// toFP16 rounds a float32 to the nearest IEEE 754 binary16 value and
// returns it as float32. Overflow saturates to ±Inf, matching half
// -precision hardware behaviour.
func toFP16(f float32) float32 { return fp16ToFloat(floatToFP16(f)) }
