package serve

import (
	"math"
	"strings"
	"testing"

	"summitscale/internal/obs"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// testTraffic is a scaled-down workload so unit tests stay fast while
// keeping the default's shape (diurnal curve plus two bursts).
func testTraffic() TrafficSpec {
	s := DefaultTraffic()
	s.Users = 200_000 // 50 req/s aggregate -> ~6k requests over 120s
	return s
}

func TestDefaultModels(t *testing.T) {
	models := DefaultModels(7)
	if len(models) != 3 {
		t.Fatalf("DefaultModels: got %d models, want 3", len(models))
	}
	for _, m := range models {
		if m.FeatureDim() < 1 || m.FeatureDim() > defaultFeatureDim {
			t.Errorf("%s: feature dim %d out of range", m.Name(), m.FeatureDim())
		}
		if m.FlopsPerSample() <= 0 || m.WeightBytes() <= 0 || m.BytesPerSample() <= 0 {
			t.Errorf("%s: non-positive cost model", m.Name())
		}
		rows := [][]float64{make([]float64, m.FeatureDim())}
		out := make([]float64, 1)
		m.PredictBatch(parallel.Shared(), 1, rows, out)
		if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
			t.Errorf("%s: prediction of zero row not finite: %v", m.Name(), out[0])
		}
	}
}

func TestTrafficGenerateDeterministic(t *testing.T) {
	models := DefaultModels(7)
	spec := testTraffic()
	a, err := spec.Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("Generate produced no requests")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Arrival != b[i].Arrival || a[i].Model != b[i].Model {
			t.Fatalf("request %d differs across identical generations", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if last := a[len(a)-1].Arrival; last >= spec.Horizon {
		t.Fatalf("arrival %v beyond horizon %v", last, spec.Horizon)
	}
	c, err := spec.Generate(43, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) && c[0].Arrival == a[0].Arrival {
		t.Fatal("different seeds produced an identical stream")
	}
}

func TestPricerBatchingAmortizes(t *testing.T) {
	p := platform.MustLookup("summit")
	pr := PricerFor(p)
	for _, m := range DefaultModels(7) {
		prev := pr.PerSample(m, 1)
		for _, b := range []int{2, 4, 8, 16, 32, 64} {
			cur := pr.PerSample(m, b)
			if cur >= prev {
				t.Errorf("%s: per-sample time not decreasing at batch %d: %v -> %v", m.Name(), b, prev, cur)
			}
			prev = cur
		}
		if a := pr.Amortization(m, 64); a < 2 {
			t.Errorf("%s: amortization at 64 = %.2f, want >= 2", m.Name(), a)
		}
		if pr.ServiceTime(m, 1) <= 0 {
			t.Errorf("%s: non-positive service time", m.Name())
		}
	}
}

func TestRunBatchedBeatsUnbatched(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	reqs, err := testTraffic().Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	spec := testTraffic()
	batched, err := Run(Config{Platform: p, Models: models, Horizon: spec.Horizon}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	unb := Config{
		Platform: p, Models: models, Horizon: spec.Horizon,
		Batch:     BatchConfig{MaxBatch: 1, MaxDelay: 0},
		Admission: DefaultAdmission(batched.Replicas, DefaultBatch().MaxBatch),
	}
	unbatched, err := Run(unb, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if batched.MeanBatch <= 1 {
		t.Errorf("batched run mean batch %.2f, want > 1", batched.MeanBatch)
	}
	if unbatched.MeanBatch != 1 {
		t.Errorf("unbatched run mean batch %.2f, want exactly 1", unbatched.MeanBatch)
	}
	if batched.Served < unbatched.Served {
		t.Errorf("batching lost availability: served %d < %d", batched.Served, unbatched.Served)
	}
	if batched.InteractiveP99 >= unbatched.InteractiveP99 && unbatched.Rejected > 0 {
		t.Errorf("batched p99 %v not below overloaded unbatched p99 %v",
			batched.InteractiveP99, unbatched.InteractiveP99)
	}
}

func TestRunAccounting(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	reqs, err := testTraffic().Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Platform: p, Models: models}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	totalReq, totalServed := 0, 0
	for _, m := range rep.Models {
		if m.Requests != m.Admitted+m.Shed+m.Full {
			t.Errorf("%s: requests %d != admitted %d + shed %d + full %d",
				m.Name, m.Requests, m.Admitted, m.Shed, m.Full)
		}
		if m.Admitted != m.Served+m.Unserved {
			t.Errorf("%s: admitted %d != served %d + unserved %d",
				m.Name, m.Admitted, m.Served, m.Unserved)
		}
		totalReq += m.Requests
		totalServed += m.Served
	}
	if totalReq != rep.Requests {
		t.Errorf("per-model requests %d != total %d", totalReq, rep.Requests)
	}
	if totalServed != rep.Served || rep.Served != len(rep.Responses) {
		t.Errorf("served accounting: models %d, report %d, responses %d",
			totalServed, rep.Served, len(rep.Responses))
	}
	if rep.Served+rep.Rejected+rep.Unserved != rep.Requests {
		t.Errorf("served %d + rejected %d + unserved %d != requests %d",
			rep.Served, rep.Rejected, rep.Unserved, rep.Requests)
	}
	for _, r := range rep.Responses {
		if r.Done < r.Arrival {
			t.Fatalf("response %d done %v before arrival %v", r.ID, r.Done, r.Arrival)
		}
	}
}

func TestRunUnknownModelRejected(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	reqs := []Request{
		{ID: 1, Model: "ridge", Arrival: 0.1, Features: make([]float64, models[0].FeatureDim())},
		{ID: 2, Model: "nonesuch", Arrival: 0.2},
	}
	rep, err := Run(Config{Platform: p, Models: models}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 1 || rep.Rejected != 1 {
		t.Fatalf("served %d rejected %d, want 1/1", rep.Served, rep.Rejected)
	}
	if rep.Rejections[0].Code != RejectUnknownModel {
		t.Fatalf("rejection code %v, want RejectUnknownModel", rep.Rejections[0].Code)
	}
}

func TestRunReplicaLossAndRepair(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	spec := testTraffic()
	reqs, err := spec.Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Platform: p, Models: models, Horizon: spec.Horizon}
	healthy, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every replica a third of the way in, never repair: admitted
	// in-flight work strands and later arrivals bounce off the full queue.
	dead := base
	for i := 0; i < healthy.Replicas*len(models); i++ {
		dead.ReplicaFails = append(dead.ReplicaFails, 40)
	}
	deadRep, err := Run(dead, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if deadRep.Unserved == 0 {
		t.Error("total replica loss produced no unserved requests")
	}
	if deadRep.Rejected == 0 {
		t.Error("total replica loss produced no rejections")
	}
	if deadRep.Served >= healthy.Served {
		t.Errorf("dead fleet served %d >= healthy %d", deadRep.Served, healthy.Served)
	}
	// Repairing shortly after restores most of the loss.
	repaired := dead
	for i := 0; i < healthy.Replicas*len(models); i++ {
		repaired.ReplicaRepairs = append(repaired.ReplicaRepairs, 50)
	}
	repRep, err := Run(repaired, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if repRep.Served <= deadRep.Served {
		t.Errorf("repairs did not recover throughput: %d <= %d", repRep.Served, deadRep.Served)
	}
}

func TestRunShedPolicyProtectsInteractive(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	spec := testTraffic()
	reqs, err := spec.Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the links hard so capacity dips below the burst rate.
	degraded := func(units.Seconds) float64 { return 0.05 }
	adm := DefaultAdmission(2, DefaultBatch().MaxBatch)
	shedCfg := Config{Platform: p, Models: models, Horizon: spec.Horizon, Replicas: 2,
		Admission: adm, LinkFactorAt: degraded}
	shed, err := Run(shedCfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	admOff := adm
	admOff.ShedAt = 0
	noShedCfg := shedCfg
	noShedCfg.Admission = admOff
	noShed, err := Run(noShedCfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	shedTotal, interShed := 0, 0
	for _, m := range shed.Models {
		shedTotal += m.Shed
	}
	if shedTotal == 0 {
		t.Fatal("degraded run with shed policy shed nothing; scenario too mild to test the policy")
	}
	for _, rj := range shed.Rejections {
		if rj.Code == RejectShed && rj.Tier == Interactive {
			t.Fatalf("shed policy rejected an Interactive request (id %d)", rj.ID)
		}
		if rj.Tier == Interactive {
			interShed++
		}
	}
	interNoShed := 0
	for _, rj := range noShed.Rejections {
		if rj.Tier == Interactive {
			interNoShed++
		}
	}
	if interShed > interNoShed {
		t.Errorf("shed policy lost more interactive requests (%d) than no policy (%d)", interShed, interNoShed)
	}
	if shed.InteractiveP99 > noShed.InteractiveP99 {
		t.Errorf("shed interactive p99 %v worse than no-shed %v", shed.InteractiveP99, noShed.InteractiveP99)
	}
}

func TestObserverThreading(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	reqs, err := testTraffic().Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	rep, err := Run(Config{Platform: p, Models: models, Obs: o}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics.Counter("serve.requests"); got != int64(rep.Requests) {
		t.Errorf("serve.requests counter %d, want %d", got, rep.Requests)
	}
	if n := o.Metrics.Count("serve.batch.size"); n == 0 {
		t.Error("no batch-size observations recorded")
	}
	if o.Trace.Len() == 0 {
		t.Error("no spans recorded")
	}
	if sum := o.Trace.Summary(); !strings.Contains(sum, "serve") || !strings.Contains(sum, "batch/") {
		t.Error("trace summary missing serve batch spans")
	}
}

func TestRenderDeterministic(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	reqs, err := testTraffic().Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(Config{Platform: p, Models: models}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Platform: p, Models: models}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("identical runs rendered different reports")
	}
	if !strings.Contains(a.Render(), "serving Summit") {
		t.Errorf("render missing platform header:\n%s", a.Render())
	}
}

func TestBatcherSizeAndDeadline(t *testing.T) {
	b := newBatcher(BatchConfig{MaxBatch: 3, MaxDelay: 1})
	var closed []Request
	for i := 1; i <= 3; i++ {
		c, deadline := b.add(Request{ID: uint64(i)})
		if i == 1 && !deadline {
			t.Error("first request did not ask for a deadline timer")
		}
		if i > 1 && deadline {
			t.Errorf("request %d asked for a duplicate deadline timer", i)
		}
		closed = c
	}
	if len(closed) != 3 {
		t.Fatalf("size close returned %d requests, want 3", len(closed))
	}
	// The deadline timer for the batch that already closed must be stale.
	if late := b.expire(0); late != nil {
		t.Fatalf("stale deadline closed a batch of %d", len(late))
	}
	b.add(Request{ID: 4})
	if got := b.expire(b.epoch); len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("live deadline close got %v, want [4]", got)
	}
}

func TestAdmitQueueBounds(t *testing.T) {
	q := newAdmitQueue(AdmissionConfig{QueueCap: 4, ShedAt: 2})
	now := units.Seconds(0)
	if rej := q.offer(Request{ID: 1, Tier: Bulk}, now); rej != nil {
		t.Fatal("first bulk offer rejected")
	}
	if rej := q.offer(Request{ID: 2, Tier: Bulk}, now); rej != nil {
		t.Fatal("second bulk offer rejected below ShedAt")
	}
	rej := q.offer(Request{ID: 3, Tier: Bulk}, now)
	if rej == nil || rej.Code != RejectShed {
		t.Fatalf("bulk at ShedAt: got %v, want RejectShed", rej)
	}
	if rej := q.offer(Request{ID: 4, Tier: Interactive}, now); rej != nil {
		t.Fatal("interactive offer shed")
	}
	if rej := q.offer(Request{ID: 5, Tier: Interactive}, now); rej != nil {
		t.Fatal("interactive offer below cap rejected")
	}
	rej = q.offer(Request{ID: 6, Tier: Interactive}, now)
	if rej == nil || rej.Code != RejectQueueFull {
		t.Fatalf("interactive at cap: got %v, want RejectQueueFull", rej)
	}
	if q.depth != 4 || q.peakDepth != 4 {
		t.Fatalf("depth %d peak %d, want 4/4", q.depth, q.peakDepth)
	}
	q.release(4)
	if q.depth != 0 {
		t.Fatalf("depth %d after release, want 0", q.depth)
	}
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	q.release(1)
}

func TestReplicaPoolFailRepair(t *testing.T) {
	p := newReplicaPool(2)
	if p.alive() != 2 {
		t.Fatalf("alive %d, want 2", p.alive())
	}
	if !p.fail() || p.alive() != 1 {
		t.Fatalf("first fail: alive %d, want 1", p.alive())
	}
	if !p.fail() || p.alive() != 0 {
		t.Fatalf("second fail: alive %d, want 0", p.alive())
	}
	if p.fail() {
		t.Fatal("fail with no live replicas reported a loss")
	}
	if p.free(100) != -1 {
		t.Fatal("dead pool reported a free replica")
	}
	if !p.repair() || p.alive() != 1 {
		t.Fatalf("repair: alive %d, want 1", p.alive())
	}
	if p.free(100) < 0 {
		t.Fatal("repaired pool reported no free replica")
	}
}

func TestReplicasForPlatforms(t *testing.T) {
	for _, name := range platform.Names() {
		p := platform.MustLookup(name)
		r := ReplicasFor(p, 3)
		if r < 1 {
			t.Errorf("%s: %d replicas, want >= 1", name, r)
		}
	}
	summit := platform.MustLookup("summit")
	if a, b := ReplicasFor(summit, 1), ReplicasFor(summit, 3); a < b {
		t.Errorf("fewer models got fewer replicas each: %d < %d", a, b)
	}
}

// TestRunSameInstantOrder pins the order of an arrival, a batch
// completion and a replica failure that all fall on one instant: the
// arrival runs first, then the failure, then the completion. Each case
// has an outcome that only this order produces.
func TestRunSameInstantOrder(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	pricer := PricerFor(p)
	// A request arriving at 0 on an idle replica completes at exactly d.
	d := pricer.ServiceTime(models[0], 1)
	req := func(id uint64, model int, at units.Seconds) Request {
		return Request{ID: id, Model: models[model].Name(), Tier: Interactive, Arrival: at,
			Features: make([]float64, models[model].FeatureDim())}
	}
	cfg := Config{Platform: p, Models: models, Batch: BatchConfig{MaxBatch: 1},
		ReplicaFails: []units.Seconds{d}}

	// Arrival before failure: request 2 takes replica 0, free at d, before
	// the failure retires replica 0 (the lowest-index live one). Were the
	// failure first, request 2 would land on replica 1.
	cfg.Replicas = 2
	rep, err := Run(cfg, []Request{req(1, 0, 0), req(2, 0, d)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 || rep.Responses[1].ID != 2 || rep.Responses[1].Replica != 0 {
		t.Fatalf("arrival vs failure: served %d, responses %+v", rep.Served, rep.Responses)
	}

	// Failure before completion: with one replica per model, request 2
	// waits behind request 1 on model 0. The failure at d retires model
	// 0's replica (ties go to the lowest model index) before request 1's
	// completion drains the backlog, so request 2 is never served; the
	// arrival on model 1 at d is served. Were the completion first,
	// request 2 would start at d and be served.
	cfg.Replicas = 1
	rep, err = Run(cfg, []Request{req(1, 0, 0), req(2, 0, 0), req(3, 1, d)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 || rep.Unserved != 1 {
		t.Fatalf("failure vs completion: served %d unserved %d, want 2/1", rep.Served, rep.Unserved)
	}
	for _, r := range rep.Responses {
		if r.ID == 2 {
			t.Fatalf("request 2 served at %v; the failure should strand it", r.Done)
		}
	}
}

// TestRunEventBudgetExhausted checks that a run stopped by its event
// budget reports an error, and that arrivals count against the budget:
// a budget of one event per request is spent on arrivals alone, leaving
// the completions pending.
func TestRunEventBudgetExhausted(t *testing.T) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	spec := testTraffic()
	spec.Horizon = 10
	reqs, err := spec.Generate(42, models)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: p, Models: models, Horizon: spec.Horizon}
	if _, err := run(cfg, reqs, len(reqs)); err == nil || !strings.Contains(err.Error(), "event budget exhausted") {
		t.Fatalf("budget of %d events for %d requests: err = %v", len(reqs), len(reqs), err)
	}
	if _, err := Run(cfg, reqs); err != nil {
		t.Fatalf("default budget: %v", err)
	}
}
