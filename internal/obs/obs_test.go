package obs

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"summitscale/internal/units"
)

// TestRegistryConcurrentIncrements hammers one registry from many
// goroutines and checks nothing is lost — the concurrency contract the
// instrumented simulators (Workflow.Run, parallel.Pool) rely on.
func TestRegistryConcurrentIncrements(t *testing.T) {
	const goroutines = 16
	const per = 1000
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Inc("events")
				r.Add("bytes", 64)
				r.Observe("latency", float64(i%7))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("events"); got != goroutines*per {
		t.Fatalf("events = %d, want %d", got, goroutines*per)
	}
	if got := r.Counter("bytes"); got != goroutines*per*64 {
		t.Fatalf("bytes = %d, want %d", got, goroutines*per*64)
	}
	if got := r.Count("latency"); got != goroutines*per {
		t.Fatalf("latency count = %d, want %d", got, goroutines*per)
	}
}

// TestObserverNilSafe exercises every method through nil observers,
// tracers, and registries — instrumented code threads optional observers
// with no branches, so nil must be a silent no-op everywhere.
func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	o.Span("t", "c", "n", 0, 1)
	o.Event("t", "c", "n", 0)
	o.Inc("x")
	o.Add("x", 2)
	o.Set("g", 1)
	o.Observe("s", 1)

	half := &Observer{} // fields nil
	half.Span("t", "c", "n", 0, 1)
	half.Inc("x")

	var r *Registry
	r.Inc("x")
	if r.Counter("x") != 0 || r.Gauge("g") != 0 || r.Sum("s") != 0 || r.Count("s") != 0 {
		t.Fatal("nil registry reads must be zero")
	}
	if r.Render() != "" {
		t.Fatal("nil registry renders empty")
	}

	var tr *Tracer
	tr.Span("t", "c", "n", 0, 1)
	tr.Event("t", "c", "n", 0)
	if tr.Len() != 0 {
		t.Fatal("nil tracer has no records")
	}
}

// TestNilObserverAllocatesNothing pins the disabled observer's cost:
// every record call on a nil observer, args included, allocates nothing,
// so simulators can leave instrumentation in their hot loops.
func TestNilObserverAllocatesNothing(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(100, func() {
		o.Span("rank-0", "train", "step", 1, 1, Num("step", 1), Str("phase", "fwd"))
		o.Event("rank-0", "fault", "failure", 1, Num("node", 3))
		o.Inc("ddl.steps")
		o.Set("ddl.loss", 1)
		o.Observe("ddl.step_s", 1)
	})
	if allocs != 0 {
		t.Fatalf("nil observer allocates %v times per record batch, want 0", allocs)
	}
}

// TestTracerCopiesArgs checks that a record keeps its own copy of the
// args, so a caller reusing its slice cannot rewrite recorded spans.
func TestTracerCopiesArgs(t *testing.T) {
	tr := NewTracer()
	args := []Arg{Num("step", 1)}
	tr.Span("rank-0", "train", "step", 0, 1, args...)
	tr.Event("rank-0", "train", "mark", 0, args...)
	args[0] = Num("step", 2)
	if got := string(tr.ChromeTrace()); strings.Contains(got, `"step":2`) || strings.Count(got, `"step":1`) != 2 {
		t.Fatalf("records alias the caller's args:\n%s", got)
	}
}

// emitShuffled emits the same multiset of records in a random order from
// several goroutines.
func emitShuffled(seed int64) *Observer {
	o := New()
	type rec struct {
		track, cat, name string
		start, dur       units.Seconds
	}
	recs := []rec{}
	for i := 0; i < 50; i++ {
		recs = append(recs, rec{"rank-0", "train", "step", units.Seconds(i * 10), 8})
		recs = append(recs, rec{"rank-0", "comm", "allreduce", units.Seconds(i*10 + 8), 2})
		recs = append(recs, rec{"rank-1", "train", "step", units.Seconds(i * 10), 9})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	var wg sync.WaitGroup
	chunk := (len(recs) + 3) / 4
	for w := 0; w < 4; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		wg.Add(1)
		go func(part []rec) {
			defer wg.Done()
			for _, r := range part {
				o.Span(r.track, r.cat, r.name, r.start, r.dur, Num("i", float64(r.start)))
				o.Observe("dur", float64(r.dur))
				o.Inc("spans")
			}
		}(recs[lo:hi])
	}
	wg.Wait()
	return o
}

// TestDeterministicAcrossEmissionOrder is the core determinism guarantee:
// the same multiset of records, emitted in different orders from racing
// goroutines, renders byte-identical Chrome JSON, summary, and metrics.
func TestDeterministicAcrossEmissionOrder(t *testing.T) {
	a := emitShuffled(1)
	b := emitShuffled(99)
	if ja, jb := a.Trace.ChromeTrace(), b.Trace.ChromeTrace(); string(ja) != string(jb) {
		t.Fatal("ChromeTrace differs across emission order")
	}
	if sa, sb := a.Trace.Summary(), b.Trace.Summary(); sa != sb {
		t.Fatal("Summary differs across emission order")
	}
	if ma, mb := a.Metrics.Render(), b.Metrics.Render(); ma != mb {
		t.Fatal("metrics Render differs across emission order")
	}
}

// TestChromeTraceValidJSON checks the hand-rolled renderer emits JSON the
// standard library parses, with the structure Chrome's viewer expects.
func TestChromeTraceValidJSON(t *testing.T) {
	o := New()
	o.Span("net", "comm", "ring \"α/β\"\n", 0, 1.5, Num("alpha", 1e-6), Str("phase", "redo"))
	o.Event("net", "fault", "node-loss", 0.75, Num("at_frac", 0.5))
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	raw := o.Trace.ChromeTrace()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	// 1 metadata + 1 span + 1 instant.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3:\n%s", len(doc.TraceEvents), raw)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
	}
	if phases["M"] != 1 || phases["X"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase mix %v", phases)
	}
}

// TestSumSortedAdditionOrder checks series sums are order-independent even
// for values where naive float accumulation would differ.
func TestSumSortedAdditionOrder(t *testing.T) {
	vals := []float64{1e16, 1, 1, 1, -1e16, 3.25, 0.125}
	a, b := NewRegistry(), NewRegistry()
	for _, v := range vals {
		a.Observe("s", v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe("s", vals[i])
	}
	if a.Sum("s") != b.Sum("s") {
		t.Fatalf("sum depends on observation order: %v vs %v", a.Sum("s"), b.Sum("s"))
	}
}

// TestTracerTrackTids pins that tids are assigned from sorted track names,
// independent of first-emission order.
func TestTracerTrackTids(t *testing.T) {
	a := NewTracer()
	a.Span("zeta", "c", "n", 0, 1)
	a.Span("alpha", "c", "n", 0, 1)
	b := NewTracer()
	b.Span("alpha", "c", "n", 0, 1)
	b.Span("zeta", "c", "n", 0, 1)
	if string(a.ChromeTrace()) != string(b.ChromeTrace()) {
		t.Fatal("tid assignment depends on emission order")
	}
}
