package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a mutex-guarded metrics store. Three metric kinds cover the
// simulators' needs:
//
//   - counters: monotonically increasing integers (events, bytes, faults);
//   - gauges: last-written float64 values (configuration echoes, sizes);
//   - series: append-only float64 observations whose aggregates (sum,
//     mean, quantiles) are computed over the *sorted* values at render
//     time, so concurrent observation order never changes a report byte.
//
// All methods are safe for concurrent use and no-ops (or zero reads) on a
// nil receiver.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	series   map[string][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		series:   map[string][]float64{},
	}
}

// Inc bumps the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add bumps the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter reads a counter (zero when absent).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Set writes the named gauge. Gauges are last-write-wins: set them from
// deterministic points only (setup, teardown), never from racing workers.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge reads a gauge (zero when absent).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Observe appends one value to the named series.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.series[name] = append(r.series[name], v)
	r.mu.Unlock()
}

// Sum returns the deterministic sum of a series: values are sorted before
// summation, so the float64 result is independent of observation order.
func (r *Registry) Sum(name string) float64 {
	vs := r.sorted(name)
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// sorted returns a sorted copy of a series.
func (r *Registry) sorted(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	vs := append([]float64(nil), r.series[name]...)
	r.mu.Unlock()
	sort.Float64s(vs)
	return vs
}

// quantile reads q in [0,1] off sorted values (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Render formats every metric as an aligned, name-sorted text block —
// byte-deterministic for any emission schedule.
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	cnames := sortedKeys(r.counters)
	gnames := sortedKeys(r.gauges)
	snames := sortedKeys(r.series)
	r.mu.Unlock()

	var b strings.Builder
	if len(cnames) > 0 {
		b.WriteString("counters:\n")
		for _, n := range cnames {
			fmt.Fprintf(&b, "  %-44s %12d\n", n, r.Counter(n))
		}
	}
	if len(gnames) > 0 {
		b.WriteString("gauges:\n")
		for _, n := range gnames {
			fmt.Fprintf(&b, "  %-44s %12g\n", n, r.Gauge(n))
		}
	}
	if len(snames) > 0 {
		b.WriteString("series:\n")
		fmt.Fprintf(&b, "  %-34s %8s %12s %12s %12s %12s\n",
			"name", "count", "sum", "mean", "p50", "max")
		for _, n := range snames {
			vs := r.sorted(n)
			var sum float64
			for _, v := range vs {
				sum += v
			}
			mean := 0.0
			if len(vs) > 0 {
				mean = sum / float64(len(vs))
			}
			fmt.Fprintf(&b, "  %-34s %8d %12.6g %12.6g %12.6g %12.6g\n",
				n, len(vs), sum, mean, quantile(vs, 0.5), quantile(vs, 1))
		}
	}
	if b.Len() == 0 {
		return "(no metrics recorded)\n"
	}
	return b.String()
}

// sortedKeys returns the sorted key set of a map. Called under r.mu.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
