// Health-gated facility failover: the §V campaigns span several computing
// sites (Summit, Perlmutter, ThetaGPU, CS-2), and a facility-wide outage —
// a maintenance window, a cooling event, a filesystem brownout — must not
// stall the campaign. The failover policy routes each task to the first
// healthy facility in preference order, trips a per-facility circuit
// breaker after repeated losses so a flapping site stops being retried,
// and optionally hedges long tasks with a backup launch on the next
// healthy site, letting whichever copy finishes first win. Everything
// runs on a simulated clock and is deterministic: same policy, same
// outage schedule, same report.
package workflow

import (
	"fmt"
	"sort"

	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// Names of the obs counters and series the failover engine records.
const (
	MetricFailovers  = "workflow.failover.failovers"
	MetricHedges     = "workflow.failover.hedges"
	MetricHedgeWins  = "workflow.failover.hedge_wins"
	MetricOutageWait = "workflow.failover.wait_s"
)

// Window is a half-open simulated interval [From, To).
type Window struct {
	From, To units.Seconds
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t units.Seconds) bool { return t >= w.From && t < w.To }

// Validate rejects empty or inverted windows.
func (w Window) Validate() error {
	if !(w.From >= 0) || !(w.To > w.From) {
		return fmt.Errorf("workflow: outage window [%v, %v) is empty or inverted",
			float64(w.From), float64(w.To))
	}
	return nil
}

// FacilityOutages maps a facility name to its outage windows, which must
// be sorted by start and non-overlapping.
type FacilityOutages map[string][]Window

// Validate checks every facility's windows are well-formed, sorted, and
// disjoint.
func (o FacilityOutages) Validate() error {
	for fac, ws := range o {
		for i, w := range ws {
			if err := w.Validate(); err != nil {
				return fmt.Errorf("%v (facility %q)", err, fac)
			}
			if i > 0 && w.From < ws[i-1].To {
				return fmt.Errorf("workflow: facility %q outage windows out of order or overlapping at [%v, %v)",
					fac, float64(w.From), float64(w.To))
			}
		}
	}
	return nil
}

// DownAt reports whether the facility is inside an outage at time t.
func (o FacilityOutages) DownAt(fac string, t units.Seconds) bool {
	for _, w := range o[fac] {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// NextUp returns the earliest time >= t at which the facility is healthy.
func (o FacilityOutages) NextUp(fac string, t units.Seconds) units.Seconds {
	for _, w := range o[fac] {
		if w.Contains(t) {
			t = w.To
		}
	}
	return t
}

// downIn returns the onset of the first outage strictly inside (from, to),
// i.e. one that would kill a task started at a healthy `from` before it
// finishes at `to`.
func (o FacilityOutages) downIn(fac string, from, to units.Seconds) (units.Seconds, bool) {
	for _, w := range o[fac] {
		if w.From > from && w.From < to {
			return w.From, true
		}
	}
	return 0, false
}

// CircuitBreaker health-gates facilities: after Threshold consecutive
// task losses on a facility it opens — the policy stops routing there —
// and half-closes again after Cooldown of simulated time.
type CircuitBreaker struct {
	Threshold int
	Cooldown  units.Seconds

	consecutive map[string]int
	openUntil   map[string]units.Seconds
	trips       int
}

// NewCircuitBreaker builds a breaker tripping after threshold consecutive
// failures and holding open for cooldown.
func NewCircuitBreaker(threshold int, cooldown units.Seconds) *CircuitBreaker {
	if threshold < 1 || cooldown <= 0 {
		panic(fmt.Sprintf("workflow: circuit breaker needs a positive threshold and cooldown (got %d, %v)",
			threshold, float64(cooldown)))
	}
	return &CircuitBreaker{
		Threshold:   threshold,
		Cooldown:    cooldown,
		consecutive: map[string]int{},
		openUntil:   map[string]units.Seconds{},
	}
}

// Allow reports whether the facility may be used at time now.
func (b *CircuitBreaker) Allow(fac string, now units.Seconds) bool {
	if b == nil {
		return true
	}
	return now >= b.openUntil[fac]
}

// OpenUntil returns when the facility's breaker closes again (zero when
// it was never tripped).
func (b *CircuitBreaker) OpenUntil(fac string) units.Seconds {
	if b == nil {
		return 0
	}
	return b.openUntil[fac]
}

// RecordFailure notes a task loss on the facility at time now, tripping
// the breaker when the consecutive-loss threshold is reached.
func (b *CircuitBreaker) RecordFailure(fac string, now units.Seconds) {
	if b == nil {
		return
	}
	b.consecutive[fac]++
	if b.consecutive[fac] >= b.Threshold {
		b.openUntil[fac] = now + b.Cooldown
		b.consecutive[fac] = 0
		b.trips++
	}
}

// RecordSuccess resets the facility's consecutive-loss count.
func (b *CircuitBreaker) RecordSuccess(fac string) {
	if b == nil {
		return
	}
	b.consecutive[fac] = 0
}

// Trips returns how many times the breaker opened.
func (b *CircuitBreaker) Trips() int {
	if b == nil {
		return 0
	}
	return b.trips
}

// FailoverPolicy routes campaign tasks across facilities.
type FailoverPolicy struct {
	// Facilities is the preference order; the first healthy, breaker-
	// allowed entry hosts each task.
	Facilities []string
	// Speed is the relative task speed per facility (default 1): a task of
	// duration d runs in d/Speed[f] on facility f.
	Speed map[string]float64
	// Outages is the facility outage schedule.
	Outages FacilityOutages
	// Breaker, if non-nil, health-gates facilities after repeated losses.
	Breaker *CircuitBreaker
	// Hedge, when positive, fires a backup launch of any still-running
	// task on the next healthy facility once the primary has run for
	// Hedge seconds; the first copy to finish wins.
	Hedge units.Seconds
	// Obs, if non-nil, receives failover/hedge counters and the campaign's
	// routing events on the simulated clock (track "failover").
	Obs *obs.Observer
}

func (p FailoverPolicy) speed(fac string) float64 {
	if s, ok := p.Speed[fac]; ok {
		return s
	}
	return 1
}

// Validate rejects empty facility lists, non-positive speeds, and
// malformed outage schedules.
func (p FailoverPolicy) Validate() error {
	if len(p.Facilities) == 0 {
		return fmt.Errorf("workflow: failover policy needs at least one facility")
	}
	seen := map[string]bool{}
	for _, f := range p.Facilities {
		if f == "" {
			return fmt.Errorf("workflow: failover policy has an unnamed facility")
		}
		if seen[f] {
			return fmt.Errorf("workflow: facility %q listed twice", f)
		}
		seen[f] = true
		if s, ok := p.Speed[f]; ok && !(s > 0) {
			return fmt.Errorf("workflow: facility %q speed %v must be positive", f, s)
		}
	}
	if p.Hedge < 0 {
		return fmt.Errorf("workflow: hedge delay %v must be non-negative", float64(p.Hedge))
	}
	return p.Outages.Validate()
}

// HedgedTask is one unit of campaign work submitted through the policy.
type HedgedTask struct {
	Name     string
	Duration units.Seconds // failure-free runtime on a unit-speed facility
}

// FailoverReport accounts a campaign run through the policy.
type FailoverReport struct {
	Completed    int
	Failovers    int           // reroutes after a facility loss or breaker trip
	Hedges       int           // backup launches fired
	HedgeWins    int           // tasks whose backup finished first (or survived the primary's loss)
	BreakerTrips int           // circuit-breaker openings
	WaitTime     units.Seconds // simulated time spent with every facility unavailable
	Makespan     units.Seconds
	PerFacility  map[string]int // completions credited per facility
}

// String renders the report's headline numbers.
func (r *FailoverReport) String() string {
	return fmt.Sprintf("completed=%d failovers=%d hedges=%d hedge_wins=%d trips=%d wait=%.0fs makespan=%.0fs",
		r.Completed, r.Failovers, r.Hedges, r.HedgeWins, r.BreakerTrips,
		float64(r.WaitTime), float64(r.Makespan))
}

// RunFailoverCampaign executes the tasks sequentially on the simulated
// clock under the policy: each task is routed to the first available
// facility, an outage striking mid-run kills the attempt (the breaker
// hears about it) and the task fails over, and — when hedging is on — a
// backup copy launched after the hedge delay can win the race or rescue
// the task outright. With a single facility and no hedge, the same loop
// degrades to wait-out-the-outage, the comparator the RS4 policy study
// measures against.
func RunFailoverCampaign(p FailoverPolicy, tasks []HedgedTask) (*FailoverReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rep := &FailoverReport{PerFacility: map[string]int{}}
	var now units.Seconds
	for _, task := range tasks {
		if !(task.Duration > 0) {
			return nil, fmt.Errorf("workflow: task %q duration %v must be positive",
				task.Name, float64(task.Duration))
		}
		for done := false; !done; {
			fac, ok := p.pick(now)
			if !ok {
				next := p.nextAvailable(now)
				p.Obs.Span("failover", "wait", "all-facilities-down", now, next-now,
					obs.Str("task", task.Name))
				p.Obs.Observe(MetricOutageWait, float64(next-now))
				rep.WaitTime += next - now
				now = next
				continue
			}
			end := now + task.Duration/units.Seconds(p.speed(fac))
			failAt, failed := p.Outages.downIn(fac, now, end)

			// Hedge: a backup fires on the best alternate facility once the
			// primary has run for the hedge delay without finishing.
			hedged, hedgeEnd, hedgeFac := false, units.Seconds(0), ""
			if p.Hedge > 0 && end > now+p.Hedge && (!failed || failAt > now+p.Hedge) {
				hStart := now + p.Hedge
				if g, ok := p.pickExcept(hStart, fac); ok {
					hEnd := hStart + task.Duration/units.Seconds(p.speed(g))
					if _, gDown := p.Outages.downIn(g, hStart, hEnd); !gDown {
						hedged, hedgeEnd, hedgeFac = true, hEnd, g
						rep.Hedges++
						p.Obs.Inc(MetricHedges)
						p.Obs.Event("failover", "hedge", "hedge-launch", hStart,
							obs.Str("task", task.Name), obs.Str("facility", g))
					}
				}
			}

			switch {
			case !failed && (!hedged || end <= hedgeEnd):
				// Primary wins cleanly.
				p.Obs.Span("failover", "run", task.Name, now, end-now,
					obs.Str("facility", fac))
				p.Breaker.RecordSuccess(fac)
				rep.PerFacility[fac]++
				now, done = end, true
			case hedged && (failed || hedgeEnd < end):
				// Backup finishes first — or rescues a primary the outage
				// killed mid-run.
				if failed {
					p.Breaker.RecordFailure(fac, failAt)
				} else {
					p.Breaker.RecordSuccess(fac)
				}
				p.Breaker.RecordSuccess(hedgeFac)
				rep.HedgeWins++
				p.Obs.Inc(MetricHedgeWins)
				p.Obs.Span("failover", "run", task.Name, now+p.Hedge, hedgeEnd-now-p.Hedge,
					obs.Str("facility", hedgeFac))
				rep.PerFacility[hedgeFac]++
				now, done = hedgeEnd, true
			default:
				// Primary lost to the outage with no live backup: fail over.
				p.Breaker.RecordFailure(fac, failAt)
				rep.Failovers++
				p.Obs.Inc(MetricFailovers)
				p.Obs.Event("failover", "fault", "facility-loss", failAt,
					obs.Str("task", task.Name), obs.Str("facility", fac))
				now = failAt
			}
		}
		rep.Completed++
	}
	rep.Makespan = now
	rep.BreakerTrips = p.Breaker.Trips()
	return rep, nil
}

// pick returns the first facility available at time now.
func (p FailoverPolicy) pick(now units.Seconds) (string, bool) {
	return p.pickExcept(now, "")
}

// pickExcept is pick skipping one facility (the hedge's primary).
func (p FailoverPolicy) pickExcept(now units.Seconds, skip string) (string, bool) {
	for _, f := range p.Facilities {
		if f == skip {
			continue
		}
		if !p.Outages.DownAt(f, now) && p.Breaker.Allow(f, now) {
			return f, true
		}
	}
	return "", false
}

// nextAvailable returns the earliest time > now at which some facility is
// both healthy and breaker-allowed. Outage windows are finite, so this
// always exists.
func (p FailoverPolicy) nextAvailable(now units.Seconds) units.Seconds {
	times := make([]units.Seconds, 0, len(p.Facilities))
	for _, f := range p.Facilities {
		t := now
		if open := p.Breaker.OpenUntil(f); open > t {
			t = open
		}
		t = p.Outages.NextUp(f, t)
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[0]
}
