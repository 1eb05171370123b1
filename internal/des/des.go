// Package des is a small discrete-event simulation kernel: a time-ordered
// event queue with deterministic FIFO tie-breaking, used by the workflow
// engine to simulate multi-facility campaigns, by the serving router, and
// by ablation experiments that need explicit timelines.
package des

// event is a scheduled callback, held by value in the queue: scheduling
// allocates no event and pops go through no interface.
type event struct {
	time   float64
	seq    int // insertion order for deterministic ties
	action func(*Sim)
}

// before orders events by time, ties by insertion.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// feed is a pre-sorted stream of events merged with the queue: event i
// fires action(i) at times[i] and carries sequence number seq0+i.
type feed struct {
	times  []float64
	next   int
	seq0   int
	action func(*Sim, int)
}

// Sim is a discrete-event simulation.
type Sim struct {
	now     float64
	queue   []event // binary min-heap under event.before
	feed    feed
	nextSeq int
	// Processed counts executed events.
	Processed int
}

// New creates an empty simulation at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// At schedules action at absolute time t (>= Now).
func (s *Sim) At(t float64, action func(*Sim)) {
	if t < s.now {
		panic("des: scheduling in the past")
	}
	s.push(event{time: t, seq: s.nextSeq, action: action})
	s.nextSeq++
}

// After schedules action delay seconds from now.
func (s *Sim) After(delay float64, action func(*Sim)) {
	s.At(s.now+delay, action)
}

// Feed schedules a stream of len(times) events without one closure or
// queue entry per event: event i calls action(s, i) at times[i]. times
// must be non-decreasing and not before Now. The events order exactly as
// if At(times[i], ...) had been called for each i in turn at this point,
// so a feed event runs before every event scheduled after Feed at the
// same time. Only one feed may be pending at a time.
func (s *Sim) Feed(times []float64, action func(*Sim, int)) {
	if s.feed.next < len(s.feed.times) {
		panic("des: feed already pending")
	}
	prev := s.now
	for _, t := range times {
		if t < prev {
			panic("des: feed not sorted or in the past")
		}
		prev = t
	}
	s.feed = feed{times: times, seq0: s.nextSeq, action: action}
	s.nextSeq += len(times)
}

// Run executes events until none are left or the event count limit is
// reached, and returns the final time. Feed events count against the
// limit like queued ones.
func (s *Sim) Run(maxEvents int) float64 {
	for {
		if maxEvents >= 0 && s.Processed >= maxEvents {
			break
		}
		if f := &s.feed; f.next < len(f.times) {
			head := event{time: f.times[f.next], seq: f.seq0 + f.next}
			if len(s.queue) == 0 || head.before(&s.queue[0]) {
				i := f.next
				f.next++
				s.now = head.time
				s.Processed++
				f.action(s, i)
				continue
			}
		}
		if len(s.queue) == 0 {
			break
		}
		e := s.pop()
		s.now = e.time
		s.Processed++
		e.action(s)
	}
	return s.now
}

// Pending returns the number of events not yet run, fed ones included.
func (s *Sim) Pending() int { return len(s.queue) + len(s.feed.times) - s.feed.next }

// push adds e to the heap.
func (s *Sim) push(e event) {
	s.queue = append(s.queue, e)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes and returns the earliest event.
func (s *Sim) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the closure so the collector can free it
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	s.queue = q
	return top
}

// Resource is a capacity-limited resource with FIFO queuing: Acquire
// schedules work when a slot frees. It models constrained facilities
// (e.g., a shared GPU partition) inside a Sim.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	waiters  []func(*Sim)
	// Busy integrates slot-seconds for utilization accounting.
	Busy      float64
	lastCheck float64
}

// NewResource creates a resource with the given slot count.
func NewResource(s *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

func (r *Resource) account() {
	r.Busy += float64(r.inUse) * (r.sim.now - r.lastCheck)
	r.lastCheck = r.sim.now
}

// Acquire runs work for duration seconds as soon as a slot is free, then
// calls done (which may be nil).
func (r *Resource) Acquire(duration float64, done func(*Sim)) {
	start := func(sim *Sim) {
		r.account()
		r.inUse++
		sim.After(duration, func(sim *Sim) {
			r.account()
			r.inUse--
			if done != nil {
				done(sim)
			}
			if len(r.waiters) > 0 && r.inUse < r.capacity {
				next := r.waiters[0]
				r.waiters = r.waiters[1:]
				next(sim)
			}
		})
	}
	if r.inUse < r.capacity {
		start(r.sim)
	} else {
		r.waiters = append(r.waiters, start)
	}
}

// Utilization returns mean busy slots divided by capacity over [0, Now].
func (r *Resource) Utilization() float64 {
	r.account()
	if r.sim.now == 0 {
		return 0
	}
	return r.Busy / (float64(r.capacity) * r.sim.now)
}
