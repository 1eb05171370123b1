package workflow

import (
	"fmt"
	"sync"

	"summitscale/internal/faults"
	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// Names of the obs counters and series backing RetryStats and the
// injectors. Exposed so observers shared with a policy (RetryPolicy.Obs)
// aggregate into the same metrics namespace.
const (
	MetricAttempts       = "workflow.retry.attempts"
	MetricRetries        = "workflow.retry.retries"
	MetricSucceeded      = "workflow.retry.succeeded"
	MetricExhausted      = "workflow.retry.exhausted"
	MetricBackoff        = "workflow.retry.backoff_s"
	MetricFaultsInjected = "workflow.faults.injected"
)

// RetryStats accumulates what a retry policy actually did across every
// task it wrapped — attempt counts and simulated backoff totals, the
// numbers the resilience study reports (previously they were swallowed
// inside Wrap). Safe for concurrent use: Workflow.Run executes wrapped
// tasks from many goroutines.
//
// The counters are backed by an obs.Registry (the zero value creates a
// private one on first use); backoff accrues as an obs series so its
// float64 total is summed in sorted order and cannot depend on goroutine
// scheduling.
type RetryStats struct {
	once sync.Once
	reg  *obs.Registry
}

// registry returns the backing registry, creating it on first use so the
// zero value keeps working.
func (s *RetryStats) registry() *obs.Registry {
	s.once.Do(func() {
		if s.reg == nil {
			s.reg = obs.NewRegistry()
		}
	})
	return s.reg
}

func (s *RetryStats) recordAttempt()   { s.registry().Inc(MetricAttempts) }
func (s *RetryStats) recordSuccess()   { s.registry().Inc(MetricSucceeded) }
func (s *RetryStats) recordExhausted() { s.registry().Inc(MetricExhausted) }

func (s *RetryStats) recordRetry(backoff units.Seconds) {
	r := s.registry()
	r.Inc(MetricRetries)
	r.Observe(MetricBackoff, float64(backoff))
}

// RetrySnapshot is a consistent copy of the counters.
type RetrySnapshot struct {
	// Attempts counts every body invocation.
	Attempts int
	// Retries counts failed attempts that were retried.
	Retries int
	// Succeeded counts wrapped tasks that eventually completed.
	Succeeded int
	// Exhausted counts wrapped tasks that ran out of attempts.
	Exhausted int
	// BackoffTotal is the simulated wait accumulated between attempts.
	BackoffTotal units.Seconds
}

// Snapshot returns a consistent copy of the counters.
func (s *RetryStats) Snapshot() RetrySnapshot {
	r := s.registry()
	return RetrySnapshot{
		Attempts:     int(r.Counter(MetricAttempts)),
		Retries:      int(r.Counter(MetricRetries)),
		Succeeded:    int(r.Counter(MetricSucceeded)),
		Exhausted:    int(r.Counter(MetricExhausted)),
		BackoffTotal: units.Seconds(r.Sum(MetricBackoff)),
	}
}

// String renders the snapshot.
func (s RetrySnapshot) String() string {
	return fmt.Sprintf("attempts=%d retries=%d succeeded=%d exhausted=%d backoff=%v",
		s.Attempts, s.Retries, s.Succeeded, s.Exhausted, s.BackoffTotal)
}

// RetryPolicy wraps task bodies with bounded retries — campaign workflows
// at leadership scale treat node failures and queue evictions as routine,
// so the §V orchestrators (Balsam, RAPTOR) all retry failed stages.
type RetryPolicy struct {
	MaxAttempts int
	// Backoff is the simulated wait before the first retry; each further
	// retry doubles it (exponential backoff). It accrues in Stats — the
	// engine does not sleep.
	Backoff units.Seconds
	// Stats, if non-nil, accumulates attempt counts and backoff totals
	// across every task wrapped with this policy.
	Stats *RetryStats
	// Obs, if non-nil, receives the same attempt/retry/backoff metrics
	// under the workflow.retry.* names — so a campaign's policy shares one
	// observer with the rest of the instrumented stack.
	Obs *obs.Observer
}

// Wrap returns a task body that retries body up to MaxAttempts times.
func (p RetryPolicy) Wrap(name string, body func(ctx *Context) error) func(*Context) error {
	if p.MaxAttempts < 1 {
		panic("workflow: retry policy needs at least one attempt")
	}
	return func(ctx *Context) error {
		var last error
		backoff := p.Backoff
		for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
			if p.Stats != nil {
				p.Stats.recordAttempt()
			}
			p.Obs.Inc(MetricAttempts)
			last = body(ctx)
			if last == nil {
				if p.Stats != nil {
					p.Stats.recordSuccess()
				}
				p.Obs.Inc(MetricSucceeded)
				return nil
			}
			if attempt < p.MaxAttempts {
				if p.Stats != nil {
					p.Stats.recordRetry(backoff)
				}
				p.Obs.Inc(MetricRetries)
				p.Obs.Observe(MetricBackoff, float64(backoff))
				backoff *= 2
			}
		}
		if p.Stats != nil {
			p.Stats.recordExhausted()
		}
		p.Obs.Inc(MetricExhausted)
		return fmt.Errorf("workflow: task %q failed after %d attempts: %w",
			name, p.MaxAttempts, last)
	}
}

// TraceInjector fails task attempts according to a faults.Trace: each
// wrapped task is pinned (round-robin, in wrap order — deterministic) to
// a node of the trace, attempt k executes in the simulated window
// [(k-1)·Window, k·Window), and the attempt fails when the trace kills
// that node inside the window. This feeds machine-level failure traces to
// the §V campaign retry policy.
type TraceInjector struct {
	Trace *faults.Trace
	// Window is the simulated wall-clock span of one task attempt.
	Window units.Seconds
	// Injected counts the faults delivered.
	Injected int
	// Obs, if non-nil, counts injections under workflow.faults.injected
	// and records one instant event per delivered fault on the attempt
	// window clock.
	Obs *obs.Observer

	mu   sync.Mutex
	next int // round-robin node assignment cursor
}

// NewTraceInjector wires a trace to task wrapping with the given
// per-attempt window.
func NewTraceInjector(tr *faults.Trace, window units.Seconds) *TraceInjector {
	if tr == nil || window <= 0 {
		panic("workflow: trace injector needs a trace and a positive window")
	}
	return &TraceInjector{Trace: tr, Window: window}
}

// Wrap assigns the task a node and returns a body whose k-th attempt
// fails iff the trace fails that node during the attempt's window.
func (ti *TraceInjector) Wrap(name string, body func(ctx *Context) error) func(*Context) error {
	ti.mu.Lock()
	node := ti.next % ti.Trace.Params.Nodes
	ti.next++
	ti.mu.Unlock()
	attempt := 0
	var attemptMu sync.Mutex
	return func(ctx *Context) error {
		attemptMu.Lock()
		k := attempt
		attempt++
		attemptMu.Unlock()
		from := units.Seconds(k) * ti.Window
		if ti.Trace.NodeFailedIn(node, from, from+ti.Window) {
			ti.mu.Lock()
			ti.Injected++
			ti.mu.Unlock()
			ti.Obs.Inc(MetricFaultsInjected)
			ti.Obs.Event(name, "fault", "node-failure", from,
				obs.Num("node", float64(node)), obs.Num("attempt", float64(k+1)))
			return fmt.Errorf("workflow: node %d failed during %q (attempt %d)", node, name, k+1)
		}
		if body == nil {
			return nil
		}
		return body(ctx)
	}
}
