// Package obs is the observability spine of the simulators: a metrics
// registry (counters, gauges, series) and a span tracer that records on
// the *simulated* clock and renders Chrome trace-event JSON plus an
// aligned text summary. The paper's scaling narrative (§IV-B, §VI-B) is
// built on per-phase time accounting — compute vs. allreduce vs. stage-in
// vs. restart — and MLPerf HPC makes the same case for time-to-solution
// breakdowns as first-class benchmark output; this package gives every
// simulator one deterministic place to report them.
//
// Determinism rules (DESIGN.md §8):
//
//   - No wall clock anywhere: spans carry simulated times supplied by the
//     instrumented code, so a trace is a pure function of the experiment's
//     seeds.
//   - Emission order does not matter: renderers sort records by content
//     before formatting, so concurrent emitters (Workflow.Run goroutines,
//     parallel.ForEach workers) produce byte-identical output at any -j.
//   - Counters are integers and gauges are last-write-wins; series sum
//     their observations in sorted order at render time, so float
//     accumulation order cannot leak scheduling into the output.
//
// Every method is safe for concurrent use and safe on a nil receiver, so
// instrumented hot paths thread one optional *Observer with no branches.
package obs

import (
	"os"

	"summitscale/internal/units"
)

// Observer bundles a metrics registry and a span tracer. Either field may
// be nil (metrics without tracing, or vice versa); the whole Observer may
// be nil, turning every record call into a no-op.
type Observer struct {
	Metrics *Registry
	Trace   *Tracer
}

// New returns an observer with a fresh registry and tracer.
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Trace: NewTracer()}
}

// Span records a completed span on the simulated clock. With a nil
// observer it inlines to one compare at the call site, and because the
// tracer copies args, the variadic slice stays on the caller's stack: a
// disabled observer allocates nothing.
func (o *Observer) Span(track, cat, name string, start, dur units.Seconds, args ...Arg) {
	if o != nil {
		o.Trace.Span(track, cat, name, start, dur, args...)
	}
}

// Event records an instant event on the simulated clock; like Span, it
// costs a nil observer one compare and no allocation.
func (o *Observer) Event(track, cat, name string, at units.Seconds, args ...Arg) {
	if o != nil {
		o.Trace.Event(track, cat, name, at, args...)
	}
}

// Inc bumps a counter by one.
func (o *Observer) Inc(name string) {
	if o == nil {
		return
	}
	o.Metrics.Inc(name)
}

// Add bumps a counter by delta.
func (o *Observer) Add(name string, delta int64) {
	if o == nil {
		return
	}
	o.Metrics.Add(name, delta)
}

// Set writes a gauge.
func (o *Observer) Set(name string, v float64) {
	if o == nil {
		return
	}
	o.Metrics.Set(name, v)
}

// Observe appends a value to a series.
func (o *Observer) Observe(name string, v float64) {
	if o == nil {
		return
	}
	o.Metrics.Observe(name, v)
}

// WriteChromeTrace writes the tracer's Chrome trace-event JSON to path. A
// nil observer (or nil tracer) writes a valid empty trace, so CLI flag
// plumbing needs no branches.
func (o *Observer) WriteChromeTrace(path string) error {
	t := (*Tracer)(nil)
	if o != nil {
		t = o.Trace
	}
	if t == nil {
		t = NewTracer()
	}
	return os.WriteFile(path, t.ChromeTrace(), 0o644)
}
