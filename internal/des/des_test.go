package des

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func(*Sim) { order = append(order, 3) })
	s.At(1, func(*Sim) { order = append(order, 1) })
	s.At(2, func(*Sim) { order = append(order, 2) })
	end := s.Run(-1)
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTiesBreakByInsertion(t *testing.T) {
	s := New()
	var order []string
	s.At(1, func(*Sim) { order = append(order, "a") })
	s.At(1, func(*Sim) { order = append(order, "b") })
	s.At(1, func(*Sim) { order = append(order, "c") })
	s.Run(-1)
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("tie order = %v", got)
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New()
	var hit float64
	s.After(5, func(sim *Sim) {
		sim.After(2.5, func(sim *Sim) { hit = sim.Now() })
	})
	s.Run(-1)
	if hit != 7.5 {
		t.Fatalf("nested event at %v", hit)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func(sim *Sim) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for past event")
			}
		}()
		sim.At(5, nil)
	})
	s.Run(-1)
}

func TestMaxEventsLimit(t *testing.T) {
	s := New()
	var reschedule func(*Sim)
	reschedule = func(sim *Sim) { sim.After(1, reschedule) }
	s.After(1, reschedule)
	s.Run(100)
	if s.Processed != 100 {
		t.Fatalf("processed %d events", s.Processed)
	}
	if s.Pending() == 0 {
		t.Fatal("limit should leave pending events")
	}
}

func TestResourceSerializesBeyondCapacity(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var ends []float64
	for i := 0; i < 4; i++ {
		r.Acquire(10, func(sim *Sim) { ends = append(ends, sim.Now()) })
	}
	s.Run(-1)
	// Two run immediately (end 10), two queue (end 20).
	if len(ends) != 4 || ends[0] != 10 || ends[1] != 10 || ends[2] != 20 || ends[3] != 20 {
		t.Fatalf("ends = %v", ends)
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	r.Acquire(4, nil)
	s.After(8, func(*Sim) {}) // extend the horizon to 8
	s.Run(-1)
	if got := r.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestResourceInUse(t *testing.T) {
	s := New()
	r := NewResource(s, 3)
	r.Acquire(5, nil)
	r.Acquire(5, nil)
	s.At(1, func(*Sim) {
		if r.inUse != 2 {
			t.Errorf("in use = %d", r.inUse)
		}
	})
	s.Run(-1)
	if r.inUse != 0 {
		t.Fatalf("resource leaked: %d", r.inUse)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewResource(New(), 0)
}

// TestQueueMatchesSortedReference drives the value heap with many equal
// times and events scheduled from inside running events, and checks it
// pops in the same (time, insertion) order as a stable sort.
func TestQueueMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := New()
		type sched struct {
			time float64
			id   int
		}
		var want []sched // in insertion order
		var got []int
		var schedule func(t float64, spawn int)
		schedule = func(at float64, spawn int) {
			id := len(want)
			want = append(want, sched{at, id})
			s.At(at, func(sim *Sim) {
				got = append(got, id)
				for k := 0; k < spawn; k++ {
					// Few distinct offsets, so equal times are common.
					schedule(sim.Now()+float64(rng.Intn(3)), rng.Intn(2))
				}
			})
		}
		for i := 0; i < 200; i++ {
			schedule(float64(rng.Intn(20)), rng.Intn(3))
		}
		s.Run(-1)
		if len(got) != len(want) {
			t.Fatalf("trial %d: ran %d of %d events", trial, len(got), len(want))
		}
		// Events scheduled while running get later sequence numbers, so
		// the reference is a stable sort of insertion order by time.
		sort.SliceStable(want, func(i, j int) bool { return want[i].time < want[j].time })
		for i := range want {
			if got[i] != want[i].id {
				t.Fatalf("trial %d: pop %d = event %d, want %d", trial, i, got[i], want[i].id)
			}
		}
	}
}

// TestFeedMatchesAt checks that a fed stream interleaves with queued
// events exactly as the same stream scheduled through At would, ties
// included: a fed event runs after events scheduled before Feed and
// before events scheduled after it.
func TestFeedMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		stream := make([]float64, 100)
		for i := range stream {
			stream[i] = float64(rng.Intn(10))
		}
		sort.Float64s(stream)
		before := make([]float64, 20)
		after := make([]float64, 20)
		for i := range before {
			before[i] = float64(rng.Intn(10))
			after[i] = float64(rng.Intn(10))
		}
		run := func(fed bool) []string {
			s := New()
			var order []string
			tag := func(label string, i int) func(*Sim) {
				return func(sim *Sim) {
					order = append(order, fmt.Sprintf("%s%d@%g", label, i, sim.Now()))
					if i%3 == 0 { // follow-ups tie with later stream events
						sim.After(1, func(sim *Sim) {
							order = append(order, fmt.Sprintf("%s%d+@%g", label, i, sim.Now()))
						})
					}
				}
			}
			for i, at := range before {
				s.At(at, tag("b", i))
			}
			if fed {
				s.Feed(stream, func(sim *Sim, i int) { tag("f", i)(sim) })
			} else {
				for i, at := range stream {
					s.At(at, tag("f", i))
				}
			}
			for i, at := range after {
				s.At(at, tag("a", i))
			}
			if s.Pending() != len(before)+len(stream)+len(after) {
				t.Fatalf("pending %d before run", s.Pending())
			}
			s.Run(-1)
			return order
		}
		want, got := run(false), run(true)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("trial %d: fed order differs:\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestFeedCountsAgainstLimit(t *testing.T) {
	s := New()
	ran := 0
	s.Feed([]float64{1, 2, 3, 4}, func(*Sim, int) { ran++ })
	s.At(2, func(*Sim) { ran++ })
	s.Run(3)
	if ran != 3 || s.Processed != 3 || s.Pending() != 2 || s.Now() != 2 {
		t.Fatalf("ran %d, processed %d, pending %d at %v", ran, s.Processed, s.Pending(), s.Now())
	}
	s.Run(-1)
	if ran != 5 || s.Pending() != 0 || s.Now() != 4 {
		t.Fatalf("ran %d, pending %d at %v", ran, s.Pending(), s.Now())
	}
}

func TestFeedRejectsUnsortedOrPast(t *testing.T) {
	for name, times := range map[string][]float64{
		"unsorted": {1, 3, 2},
		"past":     {-1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New().Feed(times, func(*Sim, int) {})
		}()
	}
}
