package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval on the run's monotonic clock, the span that caused it and the
// op it belongs to.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index of the enclosing span; -1 for a root
	op         int
}

// tracer keeps one goroutine's spans in memory until the run ends. Only
// rank 0 and the repro loop trace, so it needs no lock. A nil tracer,
// or one switched off, records nothing and reads no clock. It reads the
// wall clock; internal/obs records only the simulated one.
type tracer struct {
	on    bool
	op    int // op id stamped on new spans
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one and returns its handle
// for end; -1 when nothing is recorded.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, op: t.op})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, len(kids[i]))
		for k, c := range kids[i] {
			ivs[k] = [2]time.Duration{spans[c].start, spans[c].end}
		}
		self[i] = s.end - s.start - covered(s.start, s.end, ivs)
	}
	return self
}

// covered returns the length of the union of the intervals ivs, clipped
// to [lo, hi).
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layerTable sums span and self time per span name, largest self time
// first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var rows []*layerRow
	for i, s := range spans {
		r := byName[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			byName[s.name] = r
			rows = append(rows, r)
		}
		r.count++
		r.total += s.end - s.start
		r.self += self[i]
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	out := make([]layerRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// layer returns the row of one span name, or a zero row.
func layer(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	return layerRow{name: name}
}

func renderLayerTable(rows []layerRow) string {
	var b strings.Builder
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(&b, "%-24s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.self) / float64(all)
		}
		fmt.Fprintf(&b, "%-24s %8d %12.3f %12.3f %6.1f%%\n", r.name, r.count, ms(r.total), ms(r.self), share)
	}
	return b.String()
}

// writeSpans writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), viewable in chrome://tracing or Perfetto.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
