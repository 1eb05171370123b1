// Package faults is the deterministic fault-injection subsystem: it
// generates seeded failure traces — node crashes with exponential or
// Weibull inter-arrival times, transient stragglers, and degraded network
// links — parameterized from an internal/machine description, and feeds
// them to the simulators (netsim, storage, ddl, workflow) and to the
// checkpoint/restart resilience study in internal/core.
//
// The paper's §IV-B scale-out runs (Kurth, Laanait, Khan) only reached
// near-full Summit by surviving node failures across thousands of AC922
// nodes; MLPerf HPC likewise treats checkpoint cadence and interrupt
// tolerance as first-class scaling concerns. This package makes that
// failure-laden machine explicit while keeping every draw seeded, so each
// trace — and every report built on one — is byte-reproducible.
package faults

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"summitscale/internal/machine"
	"summitscale/internal/stats"
	"summitscale/internal/units"
)

// Kind classifies a fault event.
type Kind int

// Fault kinds.
const (
	// NodeFailure is a fatal node crash: the job loses the node and all
	// uncheckpointed work.
	NodeFailure Kind = iota
	// Straggler is a transient slowdown of one node (OS noise burst,
	// thermal throttle): steps inflate by Factor for Duration.
	Straggler
	// LinkDegrade is a transient loss of network bandwidth on one node's
	// injection path: link bandwidth is multiplied by Factor for Duration.
	LinkDegrade
	// SilentCorruption is an undetected bit flip in live training state
	// (a gradient or parameter word) on one node: the job keeps running
	// on wrong numbers until a detection guard catches it — the failure
	// class Laanait et al. hit at full-machine scale. Word and Bit say
	// where the flip lands.
	SilentCorruption
	// TornWrite is a checkpoint write cut off mid-file (node loss or
	// filesystem hiccup during the drain): the copy exists but is
	// truncated, detectable only by verification.
	TornWrite
	// StaleReplica is a partner-node replica that silently missed its
	// drain window: the tier quietly serves an old version.
	StaleReplica
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case NodeFailure:
		return "node-failure"
	case Straggler:
		return "straggler"
	case LinkDegrade:
		return "link-degrade"
	case SilentCorruption:
		return "silent-corruption"
	case TornWrite:
		return "torn-write"
	case StaleReplica:
		return "stale-replica"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one injected fault.
type Event struct {
	Time units.Seconds // job wall-clock time of onset
	Kind Kind
	Node int // affected node index in [0, Params.Nodes)
	// Duration is how long a transient fault persists (zero for
	// NodeFailure, which is permanent for the incarnation of the job).
	Duration units.Seconds
	// Factor is the transient severity: step-time multiplier (>1) for
	// stragglers, bandwidth multiplier (<1) for degraded links. Zero for
	// node failures.
	Factor float64
	// Word and Bit locate a SilentCorruption flip: the flat word index
	// (modulo the victim buffer's length at injection time) and the bit
	// within it. Zero for other kinds.
	Word int
	Bit  int
}

// Params parameterizes trace generation for one machine/job shape.
type Params struct {
	// Nodes is the job's node count (failure rates aggregate over it).
	Nodes int
	// NodeMTBF is the per-node mean time between fatal failures.
	NodeMTBF units.Seconds
	// Shape is the Weibull shape of failure inter-arrivals: 1 is the
	// memoryless exponential, <1 the infant-mortality regime after a
	// maintenance window. The scale is always chosen so the mean
	// inter-arrival stays NodeMTBF/Nodes.
	Shape float64
	// StragglerMTBE is the per-node mean time between straggler episodes.
	StragglerMTBE units.Seconds
	// StragglerFactor is the step-time multiplier while straggling.
	StragglerFactor float64
	// StragglerDuration is the episode length.
	StragglerDuration units.Seconds
	// LinkMTBE is the per-node mean time between link-degrade episodes.
	LinkMTBE units.Seconds
	// LinkFactor is the bandwidth multiplier while degraded.
	LinkFactor float64
	// LinkDuration is the episode length.
	LinkDuration units.Seconds
	// SDCMTBE is the per-node mean time between silent-corruption flips;
	// zero (the default) disables the class, which keeps every trace
	// generated before the class existed byte-identical.
	SDCMTBE units.Seconds
	// SDCWords is the nominal flat state size flips land in (Word is
	// drawn from [0, SDCWords)); consumers reduce it modulo their real
	// buffer length.
	SDCWords int
	// TornWriteMTBE is the per-node mean time between torn checkpoint
	// writes; zero disables.
	TornWriteMTBE units.Seconds
	// StaleReplicaMTBE is the per-node mean time between silently missed
	// replica drains; zero disables.
	StaleReplicaMTBE units.Seconds
}

// DefaultNodeMTBF is used when a machine description does not specify
// reliability: two years per node, Summit-class.
const DefaultNodeMTBF = 2 * units.Year

// ParamsFor derives fault parameters for a job of the given node count on
// the given machine. Transient-fault rates follow the fatal-failure rate:
// straggler episodes are ~50x more frequent than crashes and degraded
// links ~10x, matching the "soft faults dominate hard faults" ordering of
// leadership-system failure studies.
func ParamsFor(m machine.Machine, jobNodes int) Params {
	if jobNodes <= 0 || jobNodes > m.Nodes {
		jobNodes = m.Nodes
	}
	mtbf := m.NodeMTBF
	if mtbf <= 0 {
		mtbf = DefaultNodeMTBF
	}
	return Params{
		Nodes:             jobNodes,
		NodeMTBF:          mtbf,
		Shape:             1, // memoryless by default
		StragglerMTBE:     mtbf / 50,
		StragglerFactor:   1.5,
		StragglerDuration: 2 * units.Minute,
		LinkMTBE:          mtbf / 10,
		LinkFactor:        0.25,
		LinkDuration:      5 * units.Minute,
	}
}

// SystemMTBF returns the job-visible mean time between fatal failures:
// the per-node MTBF divided by the node count.
func (p Params) SystemMTBF() units.Seconds {
	if p.Nodes <= 0 {
		panic("faults: params need a positive node count")
	}
	return p.NodeMTBF / units.Seconds(p.Nodes)
}

// Trace is a seeded, sorted fault schedule over a wall-clock horizon.
type Trace struct {
	Params  Params
	Seed    uint64
	Horizon units.Seconds
	Events  []Event
}

// Generate draws a trace for the horizon. All randomness flows from the
// seed: the same (params, seed, horizon) triple yields the same trace on
// every platform and every run.
func (p Params) Generate(seed uint64, horizon units.Seconds) *Trace {
	if p.Nodes <= 0 {
		panic("faults: params need a positive node count")
	}
	if p.NodeMTBF <= 0 {
		panic("faults: params need a positive node MTBF")
	}
	if horizon <= 0 {
		panic("faults: trace horizon must be positive")
	}
	shape := p.Shape
	if shape <= 0 {
		shape = 1
	}
	root := stats.NewRNG(seed)
	// Independent streams per process so adding one fault class never
	// perturbs another class's schedule. The SDC streams split AFTER the
	// original three: traces that predate the class stay byte-identical.
	failRNG, stragRNG, linkRNG := root.Split(), root.Split(), root.Split()
	sdcRNG, tornRNG, staleRNG := root.Split(), root.Split(), root.Split()

	tr := &Trace{Params: p, Seed: seed, Horizon: horizon}

	// Fatal failures: a system-level renewal process at rate
	// Nodes/NodeMTBF with Weibull(shape) inter-arrivals whose mean is the
	// system MTBF (scale = mean / Γ(1+1/shape)).
	sysMTBF := float64(p.SystemMTBF())
	scale := sysMTBF / math.Gamma(1+1/shape)
	for t := 0.0; ; {
		t += failRNG.Weibull(shape, scale)
		if t >= float64(horizon) {
			break
		}
		tr.Events = append(tr.Events, Event{
			Time: units.Seconds(t),
			Kind: NodeFailure,
			Node: failRNG.Intn(p.Nodes),
		})
	}

	transient := func(rng *stats.RNG, mtbe units.Seconds, kind Kind,
		dur units.Seconds, factor float64) {
		if mtbe <= 0 || factor == 0 {
			return
		}
		mean := float64(mtbe) / float64(p.Nodes)
		for t := 0.0; ; {
			t += mean * rng.ExpFloat64()
			if t >= float64(horizon) {
				break
			}
			tr.Events = append(tr.Events, Event{
				Time:     units.Seconds(t),
				Kind:     kind,
				Node:     rng.Intn(p.Nodes),
				Duration: dur,
				Factor:   factor,
			})
		}
	}
	transient(stragRNG, p.StragglerMTBE, Straggler, p.StragglerDuration, p.StragglerFactor)
	transient(linkRNG, p.LinkMTBE, LinkDegrade, p.LinkDuration, p.LinkFactor)

	// Silent-data-corruption classes: instantaneous events (no Duration
	// or Factor); flips carry a word/bit target.
	sdc := func(rng *stats.RNG, mtbe units.Seconds, kind Kind) {
		if mtbe <= 0 {
			return
		}
		mean := float64(mtbe) / float64(p.Nodes)
		words := p.SDCWords
		if words <= 0 {
			words = 1
		}
		for t := 0.0; ; {
			t += mean * rng.ExpFloat64()
			if t >= float64(horizon) {
				break
			}
			e := Event{
				Time: units.Seconds(t),
				Kind: kind,
				Node: rng.Intn(p.Nodes),
			}
			if kind == SilentCorruption {
				e.Word = rng.Intn(words)
				e.Bit = rng.Intn(64)
			}
			tr.Events = append(tr.Events, e)
		}
	}
	sdc(sdcRNG, p.SDCMTBE, SilentCorruption)
	sdc(tornRNG, p.TornWriteMTBE, TornWrite)
	sdc(staleRNG, p.StaleReplicaMTBE, StaleReplica)

	// Ordered by < alone, not cmp.Compare (which sorts NaN first), so the
	// stable order is that of a plain less-than on onset time.
	slices.SortStableFunc(tr.Events, func(a, b Event) int {
		switch {
		case a.Time < b.Time:
			return -1
		case a.Time > b.Time:
			return 1
		}
		return 0
	})
	return tr
}

// Count returns the number of events of the given kind.
func (t *Trace) Count(kind Kind) int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// FailureTimes returns the fatal-failure onset times in order.
func (t *Trace) FailureTimes() []units.Seconds {
	out := make([]units.Seconds, 0, t.Count(NodeFailure))
	for _, e := range t.Events {
		if e.Kind == NodeFailure {
			out = append(out, e.Time)
		}
	}
	return out
}

// NodeFailedIn reports whether the given node suffers a fatal failure
// with onset in [from, to).
func (t *Trace) NodeFailedIn(node int, from, to units.Seconds) bool {
	for _, e := range t.Events {
		if e.Kind == NodeFailure && e.Node == node && e.Time >= from && e.Time < to {
			return true
		}
	}
	return false
}

// SlowdownAt returns the aggregate straggler step-time multiplier active
// at time t: the worst Factor of any straggler episode covering t (the
// synchronous step runs at the slowest member's pace), or 1.
func (t *Trace) SlowdownAt(at units.Seconds) float64 {
	worst := 1.0
	for _, e := range t.Events {
		if e.Time > at {
			break // events sorted by onset
		}
		if e.Kind == Straggler && at < e.Time+e.Duration && e.Factor > worst {
			worst = e.Factor
		}
	}
	return worst
}

// LinkFactorAt returns the worst link-bandwidth multiplier active at time
// t (a degraded member throttles the whole ring), or 1.
func (t *Trace) LinkFactorAt(at units.Seconds) float64 {
	worst := 1.0
	for _, e := range t.Events {
		if e.Time > at {
			break
		}
		if e.Kind == LinkDegrade && at < e.Time+e.Duration && e.Factor < worst {
			worst = e.Factor
		}
	}
	return worst
}

// Summary renders a one-line census of the trace. The SDC segment only
// appears when the trace carries those classes, so pre-SDC summaries —
// and the goldens pinning them — are unchanged.
func (t *Trace) Summary() string {
	s := fmt.Sprintf("seed=%d horizon=%v events: %d node-failure, %d straggler, %d link-degrade",
		t.Seed, t.Horizon, t.Count(NodeFailure), t.Count(Straggler), t.Count(LinkDegrade))
	if n := t.Count(SilentCorruption) + t.Count(TornWrite) + t.Count(StaleReplica); n > 0 {
		s += fmt.Sprintf(", %d silent-corruption, %d torn-write, %d stale-replica",
			t.Count(SilentCorruption), t.Count(TornWrite), t.Count(StaleReplica))
	}
	return s + fmt.Sprintf(" (system MTBF %v)", t.Params.SystemMTBF())
}

// Render lists every event, one per line — the trace exchange format
// referenced by DESIGN.md §7.
func (t *Trace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fault trace %s\n", t.Summary())
	for _, e := range t.Events {
		switch e.Kind {
		case NodeFailure, TornWrite, StaleReplica:
			fmt.Fprintf(&b, "%12.1f  %-12s node %d\n", float64(e.Time), e.Kind, e.Node)
		case SilentCorruption:
			fmt.Fprintf(&b, "%12.1f  %-12s node %d  word %d bit %d\n",
				float64(e.Time), e.Kind, e.Node, e.Word, e.Bit)
		default:
			fmt.Fprintf(&b, "%12.1f  %-12s node %d  %.0fs x%.2f\n",
				float64(e.Time), e.Kind, e.Node, float64(e.Duration), e.Factor)
		}
	}
	return b.String()
}
