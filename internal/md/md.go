// Package md is a miniature molecular-dynamics engine: velocity-Verlet
// integration of Lennard-Jones particles in a periodic box with cell-list
// neighbor search, plus a pluggable pair potential so machine-learned
// potentials (the Jia / Nguyen-Cong motif) can replace the analytic one.
// It is the modsim substrate of the paper's §V workflow case studies.
package md

import (
	"fmt"
	"math"

	"summitscale/internal/parallel"
	"summitscale/internal/stats"
)

// Vec3 is a 3-vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Norm2 returns |v|^2.
func (v Vec3) Norm2() float64 { return v.X*v.X + v.Y*v.Y + v.Z*v.Z }

// PairPotential evaluates energy and the force magnitude factor for a
// squared pair distance r2: the force on particle i from j is
// dr.Scale(ForceOverR(r2)) where dr = ri - rj.
type PairPotential interface {
	// EnergyForce returns (energy, force/r) at squared distance r2.
	EnergyForce(r2 float64) (energy, forceOverR float64)
	// Cutoff returns the interaction cutoff radius.
	Cutoff() float64
}

// LennardJones is the 12-6 potential with ε=σ=1, shifted to zero at the
// cutoff.
type LennardJones struct {
	Rc float64
	// shift makes the energy continuous at the cutoff.
	shift float64
	// rc2 caches Rc*Rc for the per-pair cutoff test.
	rc2 float64
}

// NewLennardJones creates the potential with cutoff rc (typically 2.5σ).
func NewLennardJones(rc float64) *LennardJones {
	lj := &LennardJones{Rc: rc, rc2: rc * rc}
	inv6 := 1 / math.Pow(rc*rc, 3)
	lj.shift = 4 * (inv6*inv6 - inv6)
	return lj
}

// EnergyForce implements PairPotential.
func (lj *LennardJones) EnergyForce(r2 float64) (float64, float64) {
	rc2 := lj.rc2
	if rc2 == 0 { // built as a struct literal, not via NewLennardJones
		rc2 = lj.Rc * lj.Rc
	}
	if r2 >= rc2 {
		return 0, 0
	}
	inv2 := 1 / r2
	inv6 := inv2 * inv2 * inv2
	e := 4*(inv6*inv6-inv6) - lj.shift
	f := 24 * (2*inv6*inv6 - inv6) * inv2 // (dU/dr)/r with sign for repulsion
	return e, f
}

// Cutoff implements PairPotential.
func (lj *LennardJones) Cutoff() float64 { return lj.Rc }

// TabulatedPotential wraps sampled (energy, force) tables — the form a
// machine-learned potential takes after training (internal/surrogate or
// internal/nn fit the table entries).
type TabulatedPotential struct {
	Rc     float64
	N      int
	E, FoR []float64 // indexed by r2 / Rc^2 * N

	// Hoisted out of the pair loop: EnergyForce used to recompute Rc*Rc
	// twice per pair (cutoff test and bin index).
	invRc2   float64 // 1 / Rc^2
	binScale float64 // N / Rc^2
}

// NewTabulatedFrom samples any callable into a table of n entries — used
// to build "machine-learned" stand-ins for an expensive reference.
func NewTabulatedFrom(f func(r2 float64) (float64, float64), rc float64, n int) *TabulatedPotential {
	t := &TabulatedPotential{Rc: rc, N: n, E: make([]float64, n), FoR: make([]float64, n),
		invRc2: 1 / (rc * rc), binScale: float64(n) / (rc * rc)}
	for i := 0; i < n; i++ {
		r2 := (float64(i) + 0.5) / float64(n) * rc * rc
		t.E[i], t.FoR[i] = f(r2)
	}
	return t
}

// EnergyForce implements PairPotential by nearest-bin lookup.
func (t *TabulatedPotential) EnergyForce(r2 float64) (float64, float64) {
	inv, scale := t.invRc2, t.binScale
	if inv == 0 { // built as a struct literal, not via NewTabulatedFrom
		inv = 1 / (t.Rc * t.Rc)
		scale = float64(t.N) * inv
	}
	if r2*inv >= 1 {
		return 0, 0
	}
	i := int(r2 * scale)
	if i >= t.N {
		i = t.N - 1
	}
	return t.E[i], t.FoR[i]
}

// Cutoff implements PairPotential.
func (t *TabulatedPotential) Cutoff() float64 { return t.Rc }

// System is a periodic particle system.
type System struct {
	Box  float64 // cubic box edge
	Pos  []Vec3
	Vel  []Vec3
	Pot  PairPotential
	Mass float64

	// Workers bounds the force-kernel fan-out: 0 means GOMAXPROCS, 1 keeps
	// everything on the calling goroutine. The computed forces and energy
	// are identical for every setting — the slab decomposition and merge
	// order are fixed by the geometry, not by the worker count.
	Workers int

	force []Vec3

	// Scratch reused across ComputeForces calls so stepping allocates
	// nothing in steady state.
	cells       [][]int   // cell-list buckets, truncated and refilled per call
	shardForce  [][]Vec3  // per-slab force accumulators, full particle length
	shardEnergy []float64 // per-slab potential-energy partial sums

	// lj caches the result of asserting Pot to *LennardJones once per
	// ComputeForces call, replacing the per-pair interface dispatch with a
	// direct (inlinable) call on the dominant potential. Same method, same
	// float ops — bit-identical either way.
	lj *LennardJones
}

// NewLattice places n^3 particles on a cubic lattice in a box sized for
// the given number density, with Maxwell-distributed velocities at the
// given temperature.
func NewLattice(rng *stats.RNG, n int, density, temperature float64, pot PairPotential) *System {
	count := n * n * n
	box := math.Cbrt(float64(count) / density)
	s := &System{Box: box, Pot: pot, Mass: 1,
		Pos: make([]Vec3, count), Vel: make([]Vec3, count), force: make([]Vec3, count)}
	a := box / float64(n)
	idx := 0
	var pSum Vec3
	sd := math.Sqrt(temperature)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				s.Pos[idx] = Vec3{(float64(i) + 0.5) * a, (float64(j) + 0.5) * a, (float64(k) + 0.5) * a}
				v := Vec3{rng.NormFloat64() * sd, rng.NormFloat64() * sd, rng.NormFloat64() * sd}
				s.Vel[idx] = v
				pSum = pSum.Add(v)
				idx++
			}
		}
	}
	// Remove center-of-mass drift.
	corr := pSum.Scale(-1 / float64(count))
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(corr)
	}
	return s
}

// N returns the particle count.
func (s *System) N() int { return len(s.Pos) }

// minImage applies the minimum-image convention componentwise.
func (s *System) minImage(d Vec3) Vec3 {
	d.X -= s.Box * math.Round(d.X/s.Box)
	d.Y -= s.Box * math.Round(d.Y/s.Box)
	d.Z -= s.Box * math.Round(d.Z/s.Box)
	return d
}

// wrap keeps a position inside the box.
func (s *System) wrap(p Vec3) Vec3 {
	p.X -= s.Box * math.Floor(p.X/s.Box)
	p.Y -= s.Box * math.Floor(p.Y/s.Box)
	p.Z -= s.Box * math.Floor(p.Z/s.Box)
	return p
}

// cellList bins particles into cells no smaller than the cutoff. The
// bucket slices are owned by the System and reused across calls — steady-
// state stepping rebinds indices into already-grown buckets instead of
// reallocating the whole list every step.
func (s *System) cellList() (cells [][]int, m int) {
	m = int(s.Box / s.Pot.Cutoff())
	if m < 3 {
		m = 1 // fall back to O(N^2) via a single cell
	}
	if cap(s.cells) < m*m*m {
		s.cells = make([][]int, m*m*m)
	}
	s.cells = s.cells[:m*m*m]
	cells = s.cells
	for i := range cells {
		cells[i] = cells[i][:0]
	}
	for i, p := range s.Pos {
		q := s.wrap(p)
		cx := int(q.X / s.Box * float64(m))
		cy := int(q.Y / s.Box * float64(m))
		cz := int(q.Z / s.Box * float64(m))
		if cx == m {
			cx--
		}
		if cy == m {
			cy--
		}
		if cz == m {
			cz--
		}
		c := (cx*m+cy)*m + cz
		cells[c] = append(cells[c], i)
	}
	return cells, m
}

// halfNeighborOffsets lists each cell plus half of its 26 neighbours, so
// the traversal visits every pair exactly once. Hoisted to package scope:
// it is a per-call invariant of the force loop.
var halfNeighborOffsets = [14][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0},
	{1, 0, 1}, {0, 1, 1}, {1, 1, 1}, {1, -1, 0}, {1, 0, -1}, {0, 1, -1},
	{1, 1, -1}, {1, -1, 1}, {-1, 1, 1}}

// mergeGrain is the particle chunk size for the shard-merge pass. The
// merge sums shards in fixed slab order per particle, so the chunking —
// unlike the old per-pool-width split — cannot affect the result.
const mergeGrain = 512

// ComputeForces fills the force array and returns the potential energy.
//
// With cell lists (box/cutoff >= 3) the work is sharded across x-slabs of
// the cell grid: each slab accumulates into its own full-length force
// buffer and partial energy, and the shards are merged in slab order. The
// decomposition depends only on the geometry, so the result is bit-for-bit
// identical for every Workers setting; Workers only bounds how many
// goroutines execute the slabs.
func (s *System) ComputeForces() float64 {
	s.lj, _ = s.Pot.(*LennardJones)
	cells, m := s.cellList()
	if m == 1 {
		for i := range s.force {
			s.force[i] = Vec3{}
		}
		var energy float64
		for i := 0; i < s.N(); i++ {
			for j := i + 1; j < s.N(); j++ {
				energy += s.pairInteract(i, j)
			}
		}
		return energy
	}
	n := s.N()
	if len(s.shardForce) != m || len(s.shardForce[0]) != n {
		s.shardForce = make([][]Vec3, m)
		for i := range s.shardForce {
			s.shardForce[i] = make([]Vec3, n)
		}
		s.shardEnergy = make([]float64, m)
	}
	cellIdx := func(x, y, z int) int {
		x = (x%m + m) % m
		y = (y%m + m) % m
		z = (z%m + m) % m
		return (x*m+y)*m + z
	}
	// Slabs dispatch through the persistent shared pool — no goroutine
	// spawn per call, which is what used to eat the parallel win — with
	// the fan-out capped at Workers (0 = pool width).
	shared := parallel.Shared()
	shared.RunRangeMax(s.Workers, m, 1, func(lo, hi int) {
		for cx := lo; cx < hi; cx++ {
			buf := s.shardForce[cx]
			for i := range buf {
				buf[i] = Vec3{}
			}
			var energy float64
			for cy := 0; cy < m; cy++ {
				for cz := 0; cz < m; cz++ {
					c1 := cells[cellIdx(cx, cy, cz)]
					for oi, off := range halfNeighborOffsets {
						c2 := cells[cellIdx(cx+off[0], cy+off[1], cz+off[2])]
						if oi == 0 {
							for a := 0; a < len(c1); a++ {
								for b := a + 1; b < len(c1); b++ {
									energy += s.pairInteractInto(buf, c1[a], c1[b])
								}
							}
							continue
						}
						for _, i := range c1 {
							for _, j := range c2 {
								energy += s.pairInteractInto(buf, i, j)
							}
						}
					}
				}
			}
			s.shardEnergy[cx] = energy
		}
	})
	// Merge per-slab contributions. Each particle sums its shards in
	// ascending slab order, so the merge is deterministic however the
	// particle range is chunked across workers.
	shared.RunRangeMax(s.Workers, n, mergeGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var f Vec3
			for sh := 0; sh < m; sh++ {
				f = f.Add(s.shardForce[sh][i])
			}
			s.force[i] = f
		}
	})
	var energy float64
	for _, e := range s.shardEnergy {
		energy += e
	}
	return energy
}

func (s *System) pairInteract(i, j int) float64 {
	return s.pairInteractInto(s.force, i, j)
}

// pairInteractInto accumulates the i-j interaction into the given force
// buffer and returns the pair energy.
func (s *System) pairInteractInto(force []Vec3, i, j int) float64 {
	dr := s.minImage(s.Pos[i].Sub(s.Pos[j]))
	r2 := dr.Norm2()
	if r2 == 0 {
		panic(fmt.Sprintf("md: particles %d and %d coincide", i, j))
	}
	var e, foR float64
	if lj := s.lj; lj != nil {
		e, foR = lj.EnergyForce(r2)
	} else {
		e, foR = s.Pot.EnergyForce(r2)
	}
	if foR != 0 {
		f := dr.Scale(foR)
		force[i] = force[i].Add(f)
		force[j] = force[j].Sub(f)
	}
	return e
}

// Step advances the system by one velocity-Verlet step of size dt and
// returns the potential energy after the step.
func (s *System) Step(dt float64) float64 {
	if s.force == nil {
		s.force = make([]Vec3, s.N())
		s.ComputeForces()
	}
	half := dt / 2 / s.Mass
	for i := range s.Pos {
		s.Vel[i] = s.Vel[i].Add(s.force[i].Scale(half))
		s.Pos[i] = s.wrap(s.Pos[i].Add(s.Vel[i].Scale(dt)))
	}
	e := s.ComputeForces()
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(s.force[i].Scale(half))
	}
	return e
}
