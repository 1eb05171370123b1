package faults

import (
	"bytes"
	"math"
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// referenceReplay is the replay loop as it stood before the one-loop
// rewrite: the interval comes from a call per segment, and every observer
// call goes through the nil-safe methods unguarded. It stays as test code
// so replay is pinned to it bit for bit.
func referenceReplay(shape RunShape, intervalAt func(wall units.Seconds, failures int) units.Seconds,
	failures []units.Seconds, ob *obs.Observer) Outcome {
	var out Outcome
	var wall, saved units.Seconds
	fi := 0
	fail := func(f, lost units.Seconds) {
		out.Failures++
		ob.Inc("faults.failures")
		ob.Event("job", "fault", "failure", f)
		if lost > 0 {
			ob.Span("job", "fault", "lost-work", f-lost, lost)
			ob.Observe("faults.lost_work_s", float64(lost))
		}
		ob.Span("job", "restart", "restart", f, shape.RestartCost)
		ob.Inc("faults.restarts")
	}
	for saved < shape.TotalWork {
		if fi < len(failures) && failures[fi] < wall {
			f := failures[fi]
			fi++
			out.RestartTime -= wall - f
			fail(f, 0)
			wall = f + shape.RestartCost
			out.RestartTime += shape.RestartCost
			continue
		}
		chunk := intervalAt(wall, out.Failures)
		if rem := shape.TotalWork - saved; rem < chunk {
			chunk = rem
		}
		segment := chunk
		if saved+chunk < shape.TotalWork {
			segment += shape.CheckpointCost
		}
		if fi < len(failures) && failures[fi] < wall+segment {
			f := failures[fi]
			fi++
			out.LostWork += f - wall
			fail(f, f-wall)
			wall = f + shape.RestartCost
			out.RestartTime += shape.RestartCost
			continue
		}
		ob.Span("job", "work", "segment", wall, chunk)
		if segment > chunk {
			ob.Span("job", "ckpt", "checkpoint-write", wall+chunk, shape.CheckpointCost)
			ob.Inc("faults.checkpoints")
		}
		wall += segment
		saved += chunk
		if segment > chunk {
			out.Checkpoints++
			out.CkptTime += segment - chunk
		}
	}
	out.Wall = wall
	ob.Set("faults.wall_s", float64(out.Wall))
	return out
}

// sameOutcome compares every Outcome field, floats by their bits.
func sameOutcome(a, b Outcome) bool {
	same := func(x, y units.Seconds) bool {
		return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	}
	return same(a.Wall, b.Wall) && same(a.LostWork, b.LostWork) && same(a.CkptTime, b.CkptTime) &&
		same(a.RestartTime, b.RestartTime) && a.Checkpoints == b.Checkpoints && a.Failures == b.Failures
}

// rs1Shapes are RS1's two run shapes on Summit: the Kurth (S1) and
// Blanchard (S5) full-machine jobs as internal/core's ckptShape prices
// them, with their node counts.
var rs1Shapes = []struct {
	name  string
	nodes int
	shape RunShape
}{
	{"Kurth", 4560, RunShape{TotalWork: 24 * units.Hour, CheckpointCost: 2.02752, RestartCost: 61.07179736006684}},
	{"Blanchard", 4032, RunShape{TotalWork: 24 * units.Hour, CheckpointCost: 2.2208, RestartCost: 61.401827966742246}},
}

// rs1FailureSets draws n of RS1's failure sets for a job of the given
// node count: RS1's seeds and 48 h horizon. A storm set, with the node
// MTBF divided by 200 (a system MTBF near the restart cost), adds many
// failures inside restart windows.
func rs1FailureSets(nodes, n int) [][]units.Seconds {
	jp := ParamsFor(machine.Summit(), nodes)
	storm := jp
	storm.NodeMTBF /= 200
	sets := [][]units.Seconds{storm.FailureTimes(20220523, 48*units.Hour)}
	for i := 0; i < n; i++ {
		sets = append(sets, jp.FailureTimes(20220523+uint64(i), 48*units.Hour))
	}
	return sets
}

// TestReplayMatchesReference pins the one replay loop to the loop it
// replaced on RS1's two run shapes: at every point of RS1's 33-interval
// grid, and under SimulateAdaptive's policy, every Outcome field matches
// bit for bit.
func TestReplayMatchesReference(t *testing.T) {
	for _, rs := range rs1Shapes {
		jp := ParamsFor(machine.Summit(), rs.nodes)
		daly := DalyInterval(rs.shape.CheckpointCost, jp.SystemMTBF())
		grid := GeometricIntervals(daly/8, daly*8, 33)
		prior := jp.SystemMTBF()
		for si, fs := range rs1FailureSets(rs.nodes, 16) {
			for _, iv := range grid {
				got := simulate(rs.shape, iv, fs, nil)
				want := referenceReplay(rs.shape, func(units.Seconds, int) units.Seconds { return iv }, fs, nil)
				if !sameOutcome(got, want) {
					t.Fatalf("%s set %d interval %v: replay %+v, reference %+v", rs.name, si, iv, got, want)
				}
			}
			got := replay(rs.shape, 0, prior, fs, nil)
			want := referenceReplay(rs.shape, func(wall units.Seconds, n int) units.Seconds {
				return adaptiveInterval(prior, rs.shape.CheckpointCost, wall, n)
			}, fs, nil)
			if !sameOutcome(got, want) {
				t.Fatalf("%s set %d adaptive: replay %+v, reference %+v", rs.name, si, got, want)
			}
		}
	}
}

// TestObservedReplayMatchesReference: an observed replay records the same
// spans, events, counters and gauges as the reference loop, static and
// adaptive, on the Kurth shape's first set and on the storm set.
func TestObservedReplayMatchesReference(t *testing.T) {
	rs := rs1Shapes[0]
	jp := ParamsFor(machine.Summit(), rs.nodes)
	iv := DalyInterval(rs.shape.CheckpointCost, jp.SystemMTBF())
	prior := jp.SystemMTBF()
	for si, fs := range rs1FailureSets(rs.nodes, 1) {
		for _, adaptive := range []bool{false, true} {
			got, want := obs.New(), obs.New()
			intervalAt := func(units.Seconds, int) units.Seconds { return iv }
			var o Outcome
			if adaptive {
				o = replay(rs.shape, 0, prior, fs, got)
				intervalAt = func(wall units.Seconds, n int) units.Seconds {
					return adaptiveInterval(prior, rs.shape.CheckpointCost, wall, n)
				}
			} else {
				o = simulate(rs.shape, iv, fs, got)
			}
			ref := referenceReplay(rs.shape, intervalAt, fs, want)
			if !sameOutcome(o, ref) {
				t.Fatalf("set %d adaptive=%v: replay %+v, reference %+v", si, adaptive, o, ref)
			}
			if !bytes.Equal(got.Trace.ChromeTrace(), want.Trace.ChromeTrace()) {
				t.Fatalf("set %d adaptive=%v: trace differs from the reference loop's", si, adaptive)
			}
			if g, w := got.Metrics.Render(), want.Metrics.Render(); g != w {
				t.Fatalf("set %d adaptive=%v: metrics\n%s\nreference\n%s", si, adaptive, g, w)
			}
		}
	}
}
