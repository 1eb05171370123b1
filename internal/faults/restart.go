// Checkpoint/restart simulation: replay a training run of known useful
// work against a fault trace, checkpointing at a fixed interval, and
// account wall time, lost work, and overhead — the measured side of the
// Young/Daly checkpoint-interval optimum.
package faults

import (
	"fmt"
	"math"

	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// RunShape describes a checkpointed run independent of any fault trace.
type RunShape struct {
	// TotalWork is the useful compute the run must accumulate — its
	// failure-free, checkpoint-free wall time.
	TotalWork units.Seconds
	// CheckpointCost is δ: the synchronous stall to quiesce ranks and
	// write model + optimizer state.
	CheckpointCost units.Seconds
	// RestartCost is paid after each failure: relaunch, checkpoint load,
	// and dataset re-stage before useful work resumes.
	RestartCost units.Seconds
}

// Validate rejects run shapes that would make the simulator (or the Daly
// closed forms) emit NaN/Inf instead of failing loudly: non-positive total
// work, or negative checkpoint/restart costs.
func (s RunShape) Validate() error {
	if !(s.TotalWork > 0) {
		return fmt.Errorf("faults: run shape needs positive total work, got %v", float64(s.TotalWork))
	}
	if !(s.CheckpointCost >= 0) {
		return fmt.Errorf("faults: checkpoint cost must be non-negative, got %v", float64(s.CheckpointCost))
	}
	if !(s.RestartCost >= 0) {
		return fmt.Errorf("faults: restart cost must be non-negative, got %v", float64(s.RestartCost))
	}
	return nil
}

// Outcome is the bookkeeping of one simulated checkpointed run.
type Outcome struct {
	Wall        units.Seconds // total wall time to finish TotalWork
	LostWork    units.Seconds // work (and partial checkpoints) discarded by failures
	Checkpoints int           // committed checkpoints
	CkptTime    units.Seconds // time spent writing committed checkpoints
	RestartTime units.Seconds // time spent in restarts
	Failures    int           // failures endured before completion
}

// Efficiency returns useful work divided by wall time.
func (o Outcome) Efficiency(shape RunShape) float64 {
	if o.Wall <= 0 {
		return 1
	}
	return float64(shape.TotalWork) / float64(o.Wall)
}

// Simulate replays the run against the trace's fatal failures with the
// given checkpoint interval. Work proceeds in interval-sized segments,
// each committed by a δ-long checkpoint write; a failure mid-segment (or
// mid-write, or mid-restart) discards everything since the last committed
// checkpoint and pays RestartCost. Failures after the trace horizon do
// not exist: the caller must generate traces long enough to cover the
// worst-case wall time.
//
// A non-nil ob also receives the replay: one span per committed work
// segment and checkpoint write, and — per failure — an instant failure
// event plus lost-work and restart spans, all on the job's simulated
// clock (track "job"). A nil observer records nothing; the Outcome is
// identical either way.
func Simulate(shape RunShape, interval units.Seconds, trace *Trace, ob *obs.Observer) Outcome {
	return simulate(shape, interval, trace.FailureTimes(), ob)
}

func simulate(shape RunShape, interval units.Seconds, failures []units.Seconds, ob *obs.Observer) Outcome {
	if interval <= 0 {
		panic("faults: checkpoint interval must be positive")
	}
	return replay(shape, interval, 0, failures, ob)
}

// replay is the one replay loop behind the static and adaptive
// checkpoint policies. A prior of 0 checkpoints every interval; otherwise
// adaptiveInterval re-solves the interval from the prior at the start of
// every work segment from the wall clock and the failures endured so far,
// so an online controller can tighten its cadence as evidence
// accumulates. Every observer call sits behind an ob != nil test, so an
// unobserved static replay makes no call per segment. Failures are consumed in order, so the failure count
// indexes the next one, which waits in next (+Inf once none is left).
func replay(shape RunShape, interval, prior units.Seconds,
	failures []units.Seconds, ob *obs.Observer) Outcome {
	if shape.TotalWork <= 0 {
		panic("faults: run shape needs positive total work")
	}
	var wall, saved, lostWork, ckptTime, restartTime units.Seconds
	var checkpoints, fails int
	next := units.Seconds(math.Inf(1)) // the next failure's onset
	if len(failures) > 0 {
		next = failures[0]
	}
	for saved < shape.TotalWork {
		var f, lost units.Seconds
		if next < wall {
			// Failure during a restart window restarts the restart.
			f = next
			restartTime -= wall - f // the tail of the aborted restart never ran
		} else {
			chunk := interval
			if prior != 0 {
				chunk = adaptiveInterval(prior, shape.CheckpointCost, wall, fails)
				if chunk <= 0 {
					panic("faults: checkpoint interval must be positive")
				}
			}
			if rem := shape.TotalWork - saved; rem < chunk {
				chunk = rem
			}
			segment := chunk
			if saved+chunk < shape.TotalWork {
				segment += shape.CheckpointCost // the final segment needs no commit
			}
			if next < wall+segment {
				f = next
				lost = f - wall
				lostWork += lost
			} else {
				if ob != nil {
					ob.Span("job", "work", "segment", wall, chunk)
					if segment > chunk {
						ob.Span("job", "ckpt", "checkpoint-write", wall+chunk, shape.CheckpointCost)
						ob.Inc("faults.checkpoints")
					}
				}
				wall += segment
				saved += chunk
				if segment > chunk {
					checkpoints++
					ckptTime += segment - chunk
				}
				continue
			}
		}
		fails++
		next = units.Seconds(math.Inf(1))
		if fails < len(failures) {
			next = failures[fails]
		}
		if ob != nil {
			ob.Inc("faults.failures")
			ob.Event("job", "fault", "failure", f)
			if lost > 0 {
				ob.Span("job", "fault", "lost-work", f-lost, lost)
				ob.Observe("faults.lost_work_s", float64(lost))
			}
			ob.Span("job", "restart", "restart", f, shape.RestartCost)
			ob.Inc("faults.restarts")
		}
		wall = f + shape.RestartCost
		restartTime += shape.RestartCost
	}
	if ob != nil {
		ob.Set("faults.wall_s", float64(wall))
	}
	return Outcome{
		Wall: wall, LostWork: lostWork, Checkpoints: checkpoints,
		CkptTime: ckptTime, RestartTime: restartTime, Failures: fails,
	}
}

// DalyInterval returns the Young/Daly first-order optimal checkpoint
// interval sqrt(2·δ·MTBF) for checkpoint cost δ and system MTBF. It
// panics with an explicit message on non-positive inputs (the silent
// alternative is a NaN interval that poisons every downstream sweep), and
// clamps the result to the MTBF itself when the checkpoint cost reaches
// MTBF/2 — past that point the first-order expansion is invalid and the
// un-clamped root would schedule commits rarer than the failures they
// guard against.
func DalyInterval(ckptCost, systemMTBF units.Seconds) units.Seconds {
	if ckptCost <= 0 {
		panic(fmt.Sprintf("faults: Daly interval needs a positive checkpoint cost, got %v", float64(ckptCost)))
	}
	if systemMTBF <= 0 {
		panic(fmt.Sprintf("faults: Daly interval needs a positive system MTBF, got %v", float64(systemMTBF)))
	}
	iv := units.Seconds(math.Sqrt(2 * float64(ckptCost) * float64(systemMTBF)))
	if iv > systemMTBF {
		return systemMTBF
	}
	return iv
}

// DalyOverhead returns the first-order expected overhead fraction of
// checkpointing every τ: δ/τ for the writes plus τ/(2·MTBF) of expected
// lost work per failure interval. Non-positive inputs panic explicitly
// instead of propagating Inf/NaN into reports.
func DalyOverhead(interval, ckptCost, systemMTBF units.Seconds) float64 {
	if interval <= 0 {
		panic(fmt.Sprintf("faults: Daly overhead needs a positive interval, got %v", float64(interval)))
	}
	if ckptCost <= 0 {
		panic(fmt.Sprintf("faults: Daly overhead needs a positive checkpoint cost, got %v", float64(ckptCost)))
	}
	if systemMTBF <= 0 {
		panic(fmt.Sprintf("faults: Daly overhead needs a positive system MTBF, got %v", float64(systemMTBF)))
	}
	return float64(ckptCost)/float64(interval) + float64(interval)/(2*float64(systemMTBF))
}

// SweepPoint is one checkpoint interval evaluated against a set of
// failure traces.
type SweepPoint struct {
	Interval     units.Seconds
	MeanWall     units.Seconds
	Overhead     float64 // MeanWall/TotalWork - 1
	MeanFailures float64
	Efficiency   float64 // TotalWork/MeanWall
}

// Sweep simulates the run at every interval against every set of
// fatal-failure onsets (common random numbers: the same failures across
// all intervals, so the curve is smooth in the interval and the argmin is
// statistically stable) and returns one aggregated point per interval.
// Params.FailureTimes draws the sets without the rest of each trace.
func Sweep(shape RunShape, intervals []units.Seconds, failureSets [][]units.Seconds) []SweepPoint {
	if len(intervals) == 0 || len(failureSets) == 0 {
		panic("faults: sweep needs intervals and failure sets")
	}
	pts := make([]SweepPoint, len(intervals))
	for i, iv := range intervals {
		var wall units.Seconds
		var fails int
		for _, fs := range failureSets {
			o := simulate(shape, iv, fs, nil)
			wall += o.Wall
			fails += o.Failures
		}
		mean := wall / units.Seconds(len(failureSets))
		pts[i] = SweepPoint{
			Interval:     iv,
			MeanWall:     mean,
			Overhead:     float64(mean)/float64(shape.TotalWork) - 1,
			MeanFailures: float64(fails) / float64(len(failureSets)),
			Efficiency:   float64(shape.TotalWork) / float64(mean),
		}
	}
	return pts
}

// Optimum returns the sweep point with the smallest mean wall time.
func Optimum(pts []SweepPoint) SweepPoint {
	best := pts[0]
	for _, p := range pts[1:] {
		if p.MeanWall < best.MeanWall {
			best = p
		}
	}
	return best
}

// GeometricIntervals returns n intervals spaced by a constant ratio from
// lo to hi inclusive — the sweep grid.
func GeometricIntervals(lo, hi units.Seconds, n int) []units.Seconds {
	if n < 2 || lo <= 0 || hi <= lo {
		panic("faults: bad geometric grid")
	}
	out := make([]units.Seconds, n)
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(n-1))
	v := float64(lo)
	for i := range out {
		out[i] = units.Seconds(v)
		v *= ratio
	}
	out[n-1] = hi
	return out
}
