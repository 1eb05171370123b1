// Package workflow is the AI-coordinated science-campaign engine of the
// paper's §V: a DAG of tasks executed concurrently (goroutines) or
// simulated on capacity-limited facilities (internal/des), plus the
// active-learning loop the materials case study instantiates (Liu
// pattern: surrogate-driven modsim with on-the-fly refinement from
// reference calculations).
package workflow

import (
	"fmt"
	"sort"
	"sync"

	"summitscale/internal/des"
)

// Context carries artifacts between tasks. It is safe for concurrent use.
type Context struct {
	mu     sync.Mutex
	values map[string]any
}

// NewContext returns an empty context.
func NewContext() *Context { return &Context{values: map[string]any{}} }

// Set stores an artifact.
func (c *Context) Set(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.values[key] = v
}

// Get loads an artifact; ok is false when absent.
func (c *Context) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[key]
	return v, ok
}

// MustGet loads an artifact or panics — for required upstream outputs.
func (c *Context) MustGet(key string) any {
	v, ok := c.Get(key)
	if !ok {
		panic(fmt.Sprintf("workflow: missing artifact %q", key))
	}
	return v
}

// Task is one node of the campaign DAG.
type Task struct {
	Name     string
	Deps     []string
	Facility string  // placement label for the timeline simulator
	Duration float64 // simulated wall time (seconds) on its facility
	Run      func(ctx *Context) error
}

// Workflow is a DAG of tasks.
type Workflow struct {
	tasks map[string]*Task
	order []string // insertion order for determinism
}

// New creates an empty workflow.
func New() *Workflow { return &Workflow{tasks: map[string]*Task{}} }

// Add registers a task; duplicate names are rejected.
func (w *Workflow) Add(t *Task) error {
	if t.Name == "" {
		return fmt.Errorf("workflow: task without a name")
	}
	if _, dup := w.tasks[t.Name]; dup {
		return fmt.Errorf("workflow: duplicate task %q", t.Name)
	}
	w.tasks[t.Name] = t
	w.order = append(w.order, t.Name)
	return nil
}

// MustAdd is Add that panics on error — for static campaign definitions.
func (w *Workflow) MustAdd(t *Task) {
	if err := w.Add(t); err != nil {
		panic(err)
	}
}

// Validate checks that dependencies exist and the graph is acyclic,
// returning a topological order.
func (w *Workflow) Validate() ([]string, error) {
	indeg := map[string]int{}
	succ := map[string][]string{}
	for _, name := range w.order {
		t := w.tasks[name]
		for _, d := range t.Deps {
			if _, ok := w.tasks[d]; !ok {
				return nil, fmt.Errorf("workflow: task %q depends on unknown %q", name, d)
			}
			indeg[name]++
			succ[d] = append(succ[d], name)
		}
	}
	var ready []string
	for _, name := range w.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	var topo []string
	for len(ready) > 0 {
		sort.Strings(ready)
		n := ready[0]
		ready = ready[1:]
		topo = append(topo, n)
		for _, s := range succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(topo) != len(w.tasks) {
		return nil, fmt.Errorf("workflow: dependency cycle among %d tasks", len(w.tasks)-len(topo))
	}
	return topo, nil
}

// Run executes the DAG with real concurrency: every task starts as soon
// as its dependencies finish. The first task error cancels nothing but is
// reported (with its task name) after all runnable work completes.
func (w *Workflow) Run(ctx *Context) error {
	if _, err := w.Validate(); err != nil {
		return err
	}
	done := map[string]chan struct{}{}
	for name := range w.tasks {
		done[name] = make(chan struct{})
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, name := range w.order {
		t := w.tasks[name]
		wg.Add(1)
		go func(t *Task) {
			defer wg.Done()
			defer close(done[t.Name])
			for _, d := range t.Deps {
				<-done[d]
			}
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed || t.Run == nil {
				return
			}
			if err := t.Run(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("workflow: task %q: %w", t.Name, err)
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	return firstErr
}

// Facility is a named resource pool for the timeline simulator — one of
// the paper's §V-B computing sites (Summit, Perlmutter, ThetaGPU, CS-2).
type Facility struct {
	Name     string
	Capacity int // concurrent tasks
}

// Timeline is the simulated schedule of a workflow on facilities.
type Timeline struct {
	Makespan float64
	// Start and End per task name.
	Start, End map[string]float64
	// Utilization per facility.
	Utilization map[string]float64
}

// Simulate schedules the DAG on the facilities with a discrete-event
// simulation: each task occupies one slot of its facility for its
// Duration once its dependencies complete. Tasks naming an unknown
// facility get a dedicated unit facility.
func (w *Workflow) Simulate(facilities []Facility) (*Timeline, error) {
	topo, err := w.Validate()
	if err != nil {
		return nil, err
	}
	sim := des.New()
	res := map[string]*des.Resource{}
	for _, f := range facilities {
		res[f.Name] = des.NewResource(sim, f.Capacity)
	}
	tl := &Timeline{Start: map[string]float64{}, End: map[string]float64{},
		Utilization: map[string]float64{}}

	remaining := map[string]int{}
	succ := map[string][]string{}
	for _, name := range topo {
		t := w.tasks[name]
		remaining[name] = len(t.Deps)
		for _, d := range t.Deps {
			succ[d] = append(succ[d], name)
		}
	}
	var launch func(name string)
	launch = func(name string) {
		t := w.tasks[name]
		r, ok := res[t.Facility]
		if !ok {
			r = des.NewResource(sim, 1)
			res[t.Facility] = r
		}
		// Record the start when the slot is actually acquired: wrap the
		// duration work so Start is the acquisition instant.
		sim.After(0, func(s *des.Sim) {
			r.Acquire(t.Duration, func(s *des.Sim) {
				tl.End[name] = s.Now()
				for _, nxt := range succ[name] {
					remaining[nxt]--
					if remaining[nxt] == 0 {
						launch(nxt)
					}
				}
			})
			// Approximate start (queueing shifts it; End-Duration is exact).
		})
	}
	for _, name := range topo {
		if remaining[name] == 0 {
			launch(name)
		}
	}
	tl.Makespan = sim.Run(-1)
	for name := range tl.End {
		tl.Start[name] = tl.End[name] - w.tasks[name].Duration
	}
	for fname, r := range res {
		tl.Utilization[fname] = r.Utilization()
	}
	return tl, nil
}
