package serve

import (
	"fmt"
	"sort"
	"strings"

	"summitscale/internal/des"
	"summitscale/internal/obs"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// Config assembles one serving run. The zero value of most fields selects
// a sensible default; Platform and Models are required.
type Config struct {
	// Platform sizes replica pools and prices service times.
	Platform platform.Platform
	// Models is the fleet; requests route by Model name.
	Models []Model
	// Batch is the micro-batching policy (zero MaxBatch selects
	// DefaultBatch).
	Batch BatchConfig
	// Admission bounds each model's queue (zero QueueCap selects
	// DefaultAdmission for the resolved replica count). To disable
	// shedding, set QueueCap explicitly and leave ShedAt zero.
	Admission AdmissionConfig
	// Replicas per model; zero selects ReplicasFor(Platform, len(Models)).
	Replicas int
	// Workers caps inference-kernel parallelism (the -j knob). It cannot
	// change results: kernels write disjoint output rows through
	// RunRangeMax. Zero uses the pool's full width.
	Workers int
	// Horizon, when positive, is the denominator for throughput; zero
	// falls back to the last completion time.
	Horizon units.Seconds
	// Pricer overrides the platform-derived price model.
	Pricer *Pricer
	// Pool runs inference kernels; nil uses parallel.Shared().
	Pool *parallel.WorkerPool
	// Obs receives spans, queue gauges, and latency series; nil is a
	// no-op.
	Obs *obs.Observer

	// LinkFactorAt, when set, returns the interconnect health factor in
	// (0, 1] at a simulated time (chaos link-flap threading): service and
	// transit times divide by it.
	LinkFactorAt func(units.Seconds) float64
	// ReplicaFails are times at which one live replica is lost (each event
	// drains gracefully: an in-flight batch completes first). Losses
	// spread across models, hitting the model with the most live replicas.
	ReplicaFails []units.Seconds
	// ReplicaRepairs are times at which one lost replica returns, to the
	// model with the fewest live replicas.
	ReplicaRepairs []units.Seconds
}

// ModelStats is one model's ledger in a Report.
type ModelStats struct {
	Name         string
	Replicas     int
	ReplicasLost int

	Requests int // routed to this model
	Admitted int
	Shed     int // Bulk requests refused by the shed policy
	Full     int // requests refused queue-full
	Served   int
	Unserved int // admitted but never completed (capacity lost)

	Batches   int
	MeanBatch float64
	MaxBatch  int
	PeakQueue int

	P50, P99, Max units.Seconds // served latency quantiles
	// AnalyticP50/P99 are the queueing-free roofline estimates: half
	// (resp. full) batch delay plus the priced service time at the mean
	// (resp. largest) observed batch, plus transit.
	AnalyticP50, AnalyticP99 units.Seconds
	// Amortization is the analytic per-sample speedup at MaxBatch.
	Amortization float64
}

// Report is the deterministic outcome of a serving run: a pure function
// of (Config, request stream), byte-identical at any worker count.
type Report struct {
	Platform string
	Workers  int
	Replicas int
	Horizon  units.Seconds

	Requests int
	Served   int
	Rejected int
	Unserved int

	InteractiveP50, InteractiveP99 units.Seconds
	BulkP50, BulkP99               units.Seconds
	MeanBatch                      float64
	Throughput                     float64 // served requests per simulated second
	Checksum                       float64 // sum of response values: pins inference output

	Models     []ModelStats
	Responses  []Response
	Rejections []Rejection
}

// modelState is the router's per-model runtime.
type modelState struct {
	m        Model
	admit    *admitQueue
	batch    *batcher
	replicas *replicaPool

	latencies  []float64
	batchSizes []int
	served     int
}

// Run drives the request stream through admission, micro-batching, and
// replica dispatch on the simulated clock, running real inference kernels
// for every served batch. Requests are sorted by (Arrival, ID) first, so
// the outcome is independent of input order; the event loop itself is
// single-threaded, so it is independent of -j by construction.
//
// The event budget is eight events per request plus four per chaos
// event, above the at most three (arrival, deadline timer, completion)
// a request can cause; a run that exceeds it returns an error.
func Run(cfg Config, reqs []Request) (*Report, error) {
	return run(cfg, reqs, 8*len(reqs)+4*(len(cfg.ReplicaFails)+len(cfg.ReplicaRepairs))+1024)
}

// run is Run with an explicit event budget.
func run(cfg Config, reqs []Request, maxEvents int) (*Report, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: config needs at least one model")
	}
	if cfg.Batch.MaxBatch == 0 {
		cfg.Batch = DefaultBatch()
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = ReplicasFor(cfg.Platform, len(cfg.Models))
	}
	if cfg.Admission.QueueCap == 0 {
		cfg.Admission = DefaultAdmission(replicas, cfg.Batch.MaxBatch)
	}
	pricer := PricerFor(cfg.Platform)
	if cfg.Pricer != nil {
		pricer = *cfg.Pricer
	}
	pool := cfg.Pool
	if pool == nil {
		pool = parallel.Shared()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = pool.Workers()
	}
	link := cfg.LinkFactorAt
	linkAt := func(t units.Seconds) float64 {
		if link == nil {
			return 1
		}
		f := link(t)
		if f < 0.01 {
			f = 0.01
		}
		if f > 1 {
			f = 1
		}
		return f
	}
	o := cfg.Obs

	states := make([]*modelState, len(cfg.Models))
	byName := make(map[string]int, len(cfg.Models))
	for i, m := range cfg.Models {
		if _, dup := byName[m.Name()]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", m.Name())
		}
		byName[m.Name()] = i
		states[i] = &modelState{
			m:        m,
			admit:    newAdmitQueue(cfg.Admission),
			batch:    newBatcher(cfg.Batch),
			replicas: newReplicaPool(replicas),
		}
	}

	rep := &Report{
		Platform: cfg.Platform.Name,
		Workers:  workers,
		Replicas: replicas,
		Requests: len(reqs),
		// Most requests get served; presizing keeps the hot loop free of
		// growslice churn.
		Responses: make([]Response, 0, len(reqs)),
	}

	sorted := sortRequests(reqs)
	sim := des.New()

	// start services a batch on a replica: releases the admission ledger,
	// runs the real inference kernel, and schedules completion at the
	// roofline-priced service time (inflated while links are degraded).
	var drain func(s *des.Sim, mi int)
	start := func(s *des.Sim, mi, replica int, batch []Request) {
		st := states[mi]
		now := units.Seconds(s.Now())
		st.admit.release(len(batch))
		if o != nil {
			o.Set("serve.queue."+st.m.Name(), float64(st.admit.depth))
		}
		rows := make([][]float64, len(batch))
		for i, r := range batch {
			rows[i] = r.Features
		}
		out := make([]float64, len(batch))
		st.m.PredictBatch(pool, workers, rows, out)
		svc := pricer.ServiceTime(st.m, len(batch)) / units.Seconds(linkAt(now))
		done := now + svc
		st.replicas.busyUntil[replica] = done
		st.replicas.started++
		st.batchSizes = append(st.batchSizes, len(batch))
		// The obs layer is nil-safe, but its labels are built at the call
		// site; guarding keeps the unobserved hot path allocation-free.
		if o != nil {
			o.Observe("serve.batch.size", float64(len(batch)))
			o.Span("serve/"+st.m.Name(), "serve", fmt.Sprintf("batch/%d", len(batch)), now, svc,
				obs.Num("rows", float64(len(batch))), obs.Num("replica", float64(replica)))
		}
		bcopy := batch
		s.At(float64(done), func(s *des.Sim) {
			rtt := pricer.RTT / units.Seconds(linkAt(done))
			for i, rq := range bcopy {
				resp := Response{
					ID: rq.ID, Model: rq.Model, Tier: rq.Tier, Value: out[i],
					Arrival: rq.Arrival, Done: done + rtt,
					BatchSize: len(bcopy), Replica: replica,
				}
				rep.Responses = append(rep.Responses, resp)
				rep.Checksum += resp.Value
				lat := float64(resp.Latency())
				st.latencies = append(st.latencies, lat)
				st.served++
				if o != nil {
					o.Observe("serve.latency_ms."+rq.Tier.String(), lat*1e3)
					o.Span("serve/"+rq.Model+"/req", "serve", rq.Tier.String(), rq.Arrival, resp.Done-rq.Arrival,
						obs.Num("id", float64(rq.ID)), obs.Num("batch", float64(len(bcopy))))
				}
			}
			drain(s, mi)
		})
	}
	drain = func(s *des.Sim, mi int) {
		st := states[mi]
		now := units.Seconds(s.Now())
		for len(st.replicas.waiting) > 0 {
			r := st.replicas.free(now)
			if r < 0 {
				return
			}
			batch := st.replicas.waiting[0]
			st.replicas.waiting = st.replicas.waiting[1:]
			start(s, mi, r, batch)
		}
	}
	dispatch := func(s *des.Sim, mi int, batch []Request) {
		states[mi].replicas.waiting = append(states[mi].replicas.waiting, batch)
		drain(s, mi)
	}

	// Arrivals are data fed beside the event heap, not one closure and
	// one queued event per request. Fed before any other event is
	// scheduled, each arrival orders before every other event at its
	// instant, and each still counts against the event budget.
	arrivals := make([]float64, len(sorted))
	for i, r := range sorted {
		arrivals[i] = float64(r.Arrival)
	}
	sim.Feed(arrivals, func(s *des.Sim, i int) {
		r := sorted[i]
		now := units.Seconds(s.Now())
		mi, ok := byName[r.Model]
		if !ok {
			rep.Rejections = append(rep.Rejections, Rejection{
				ID: r.ID, Model: r.Model, Tier: r.Tier, Code: RejectUnknownModel, At: now,
			})
			o.Inc("serve.reject.unknown_model")
			return
		}
		st := states[mi]
		st.admit.requests++
		if o != nil {
			o.Inc("serve.requests")
		}
		if rej := st.admit.offer(r, now); rej != nil {
			rep.Rejections = append(rep.Rejections, *rej)
			if o != nil {
				o.Inc("serve.reject." + rej.Code.String())
			}
			return
		}
		if o != nil {
			o.Set("serve.queue."+r.Model, float64(st.admit.depth))
		}
		closed, deadline := st.batch.add(r)
		if closed != nil {
			dispatch(s, mi, closed)
			return
		}
		if deadline {
			epoch := st.batch.epoch
			s.At(float64(now+st.batch.cfg.MaxDelay), func(s *des.Sim) {
				if b := st.batch.expire(epoch); b != nil {
					dispatch(s, mi, b)
				}
			})
		}
	})

	// Chaos threading: replica losses hit the model with the most live
	// replicas (ties to the lowest model index), repairs return capacity
	// to the model with the fewest.
	for _, t := range cfg.ReplicaFails {
		sim.At(float64(t), func(s *des.Sim) {
			best, most := -1, -1
			for i, st := range states {
				if a := st.replicas.alive(); a > most && a > 0 {
					best, most = i, a
				}
			}
			if best >= 0 {
				states[best].replicas.fail()
				o.Inc("serve.replica.lost")
				o.Set("serve.replicas."+states[best].m.Name(), float64(states[best].replicas.alive()))
			}
		})
	}
	for _, t := range cfg.ReplicaRepairs {
		sim.At(float64(t), func(s *des.Sim) {
			best, fewest := -1, replicas+1
			for i, st := range states {
				if st.replicas.lostCount > 0 && st.replicas.alive() < fewest && st.replicas.anyLost() {
					best, fewest = i, st.replicas.alive()
				}
			}
			if best >= 0 {
				states[best].replicas.repair()
				o.Inc("serve.replica.repaired")
				o.Set("serve.replicas."+states[best].m.Name(), float64(states[best].replicas.alive()))
				drain(s, best)
			}
		})
	}

	end := units.Seconds(sim.Run(maxEvents))
	if sim.Pending() > 0 {
		return nil, fmt.Errorf("serve: event budget exhausted with %d events pending", sim.Pending())
	}

	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = end
	}
	rep.Horizon = horizon
	finish(rep, states, pricer, cfg.Batch)
	return rep, nil
}

// finish folds per-model state into the report's summary fields.
func finish(rep *Report, states []*modelState, pricer Pricer, bc BatchConfig) {
	var interactive, bulk []float64
	for _, r := range rep.Responses {
		lat := float64(r.Latency())
		if r.Tier == Interactive {
			interactive = append(interactive, lat)
		} else {
			bulk = append(bulk, lat)
		}
	}
	sort.Float64s(interactive)
	sort.Float64s(bulk)
	rep.InteractiveP50 = units.Seconds(quantile(interactive, 0.50))
	rep.InteractiveP99 = units.Seconds(quantile(interactive, 0.99))
	rep.BulkP50 = units.Seconds(quantile(bulk, 0.50))
	rep.BulkP99 = units.Seconds(quantile(bulk, 0.99))

	totalBatches, totalBatched := 0, 0
	for _, st := range states {
		ms := ModelStats{
			Name:         st.m.Name(),
			Replicas:     len(st.replicas.busyUntil),
			ReplicasLost: st.replicas.lostCount,
			Requests:     st.admit.requests,
			Admitted:     st.admit.admitted,
			Shed:         st.admit.shed,
			Full:         st.admit.full,
			Served:       st.served,
			Unserved:     st.admit.admitted - st.served,
			Batches:      len(st.batchSizes),
			PeakQueue:    st.admit.peakDepth,
			Amortization: pricer.Amortization(st.m, bc.MaxBatch),
		}
		maxB := 0
		for _, b := range st.batchSizes {
			totalBatched += b
			if b > maxB {
				maxB = b
			}
		}
		ms.MaxBatch = maxB
		if len(st.batchSizes) > 0 {
			sum := 0
			for _, b := range st.batchSizes {
				sum += b
			}
			ms.MeanBatch = float64(sum) / float64(len(st.batchSizes))
		}
		totalBatches += len(st.batchSizes)
		sort.Float64s(st.latencies)
		ms.P50 = units.Seconds(quantile(st.latencies, 0.50))
		ms.P99 = units.Seconds(quantile(st.latencies, 0.99))
		if n := len(st.latencies); n > 0 {
			ms.Max = units.Seconds(st.latencies[n-1])
		}
		meanB := ms.MeanBatch
		if meanB < 1 {
			meanB = 1
		}
		ms.AnalyticP50 = bc.MaxDelay/2 + pricer.ServiceTime(st.m, int(meanB+0.5)) + pricer.RTT
		analyticMax := maxB
		if analyticMax < 1 {
			analyticMax = 1
		}
		ms.AnalyticP99 = bc.MaxDelay + pricer.ServiceTime(st.m, analyticMax) + pricer.RTT
		rep.Models = append(rep.Models, ms)
		rep.Served += ms.Served
		rep.Unserved += ms.Unserved
	}
	sort.Slice(rep.Models, func(i, j int) bool { return rep.Models[i].Name < rep.Models[j].Name })
	rep.Rejected = len(rep.Rejections)
	if totalBatches > 0 {
		rep.MeanBatch = float64(totalBatched) / float64(totalBatches)
	}
	if rep.Horizon > 0 {
		rep.Throughput = float64(rep.Served) / float64(rep.Horizon)
	}
}

// Render formats the report as the deterministic text block pinned by the
// serving golden and compared byte-for-byte by the CI serve-smoke gate.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving %s: %d replicas/model, %d requests over %.0fs\n",
		r.Platform, r.Replicas, r.Requests, float64(r.Horizon))
	fmt.Fprintf(&b, "  served %d  rejected %d  unserved %d  throughput %.2f req/s  mean batch %.2f\n",
		r.Served, r.Rejected, r.Unserved, r.Throughput, r.MeanBatch)
	fmt.Fprintf(&b, "  interactive p50 %.1fms p99 %.1fms | bulk p50 %.1fms p99 %.1fms\n",
		1e3*float64(r.InteractiveP50), 1e3*float64(r.InteractiveP99),
		1e3*float64(r.BulkP50), 1e3*float64(r.BulkP99))
	fmt.Fprintf(&b, "  checksum %.6e\n", r.Checksum)
	for _, m := range r.Models {
		fmt.Fprintf(&b, "  model %-8s req %6d adm %6d shed %5d full %5d served %6d batches %5d mean %.2f max %d peakq %d\n",
			m.Name, m.Requests, m.Admitted, m.Shed, m.Full, m.Served, m.Batches, m.MeanBatch, m.MaxBatch, m.PeakQueue)
		fmt.Fprintf(&b, "    p50 %.1fms p99 %.1fms max %.1fms | analytic p50 %.1fms p99 %.1fms amortization %.1fx\n",
			1e3*float64(m.P50), 1e3*float64(m.P99), 1e3*float64(m.Max),
			1e3*float64(m.AnalyticP50), 1e3*float64(m.AnalyticP99), m.Amortization)
	}
	return b.String()
}
