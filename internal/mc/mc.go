// Package mc implements the lattice alloy Monte-Carlo substrate of the
// paper's §V-A materials case study (Liu et al.): a binary alloy on a 3-D
// lattice with nearest-neighbour interactions sampled by Metropolis spin
// exchange, a pluggable energy model so a machine-learned surrogate can
// replace the "first-principles" reference, and the order parameter whose
// temperature dependence exhibits the order–disorder transition.
package mc

import (
	"math"

	"summitscale/internal/stats"
)

// EnergyModel scores a configuration's energy from its pair statistics.
type EnergyModel interface {
	// PairEnergy returns the energy contribution of a like (AA/BB) or
	// unlike (AB) nearest-neighbour bond. It must be a pure function of
	// its argument: a lattice reads both bond energies once per sweep or
	// energy sum, not once per bond.
	PairEnergy(like bool) float64
}

// ReferenceModel is the "first-principles" stand-in: an Ising-like
// Hamiltonian where unlike bonds are favourable (ordering alloy), with a
// deterministic many-body correction that a learned surrogate must
// capture from data.
type ReferenceModel struct {
	// J is the ordering energy scale; unlike bonds get -J, like +J.
	J float64
	// Anharmonicity perturbs the like-bond energy, standing in for the
	// beyond-pair physics of the DFT reference.
	Anharmonicity float64
}

// PairEnergy implements EnergyModel.
func (m ReferenceModel) PairEnergy(like bool) float64 {
	if like {
		return m.J + m.Anharmonicity
	}
	return -m.J
}

// LearnedModel is a surrogate fit by internal/surrogate: two learned bond
// coefficients.
type LearnedModel struct {
	LikeE, UnlikeE float64
}

// PairEnergy implements EnergyModel.
func (m LearnedModel) PairEnergy(like bool) float64 {
	if like {
		return m.LikeE
	}
	return m.UnlikeE
}

// Lattice is an L×L×L binary alloy at 50/50 composition. Build one with
// NewLattice.
type Lattice struct {
	L     int
	Spins []int8 // +1 = species A, -1 = species B
	Model EnergyModel
	// nb[i] lists site i's six periodic neighbours in the order +x, -x,
	// +y, -y, +z, -z. At L <= 2 a site meets the same neighbour more
	// than once, and every entry counts as a bond.
	nb [][6]int32
}

// NewLattice builds an L^3 lattice in the fully ordered (checkerboard)
// state, the ground state of an ordering alloy.
func NewLattice(l int, model EnergyModel) *Lattice {
	lat := &Lattice{L: l, Spins: make([]int8, l*l*l), Model: model, nb: make([][6]int32, l*l*l)}
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				i := lat.idx(x, y, z)
				if (x+y+z)%2 == 0 {
					lat.Spins[i] = 1
				} else {
					lat.Spins[i] = -1
				}
				lat.nb[i] = [6]int32{
					int32(lat.idx(x+1, y, z)), int32(lat.idx(x-1, y, z)),
					int32(lat.idx(x, y+1, z)), int32(lat.idx(x, y-1, z)),
					int32(lat.idx(x, y, z+1)), int32(lat.idx(x, y, z-1)),
				}
			}
		}
	}
	return lat
}

// idx maps periodic coordinates to a site index.
func (l *Lattice) idx(x, y, z int) int {
	m := l.L
	x = (x%m + m) % m
	y = (y%m + m) % m
	z = (z%m + m) % m
	return (x*m+y)*m + z
}

// N returns the site count.
func (l *Lattice) N() int { return len(l.Spins) }

// siteEnergy returns the bond energy of site i with its neighbours, given
// the like and unlike bond energies.
func (l *Lattice) siteEnergy(i int, like, unlike float64) float64 {
	var e float64
	si := l.Spins[i]
	for _, j := range l.nb[i] {
		if si == l.Spins[j] {
			e += like
		} else {
			e += unlike
		}
	}
	return e
}

// TotalEnergy returns the configuration energy (each bond counted once).
func (l *Lattice) TotalEnergy() float64 {
	like, unlike := l.Model.PairEnergy(true), l.Model.PairEnergy(false)
	var e float64
	for i := range l.Spins {
		e += l.siteEnergy(i, like, unlike)
	}
	return e / 2
}

// BondCounts returns the number of like and unlike nearest-neighbour
// bonds — the descriptor the learned surrogate trains on.
func (l *Lattice) BondCounts() (like, unlike int) {
	for i, si := range l.Spins {
		for _, j := range l.nb[i] {
			if int(j) > i {
				if si == l.Spins[j] {
					like++
				} else {
					unlike++
				}
			}
		}
	}
	return like, unlike
}

// OrderParameter returns the staggered magnetization in [0, 1]: 1 in the
// perfectly ordered checkerboard, ~0 in the disordered phase.
func (l *Lattice) OrderParameter() float64 {
	var s float64
	m := l.L
	i := 0
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			for z := 0; z < m; z++ {
				sign := 1.0
				if (x+y+z)%2 == 1 {
					sign = -1
				}
				s += sign * float64(l.Spins[i])
				i++
			}
		}
	}
	return math.Abs(s) / float64(l.N())
}

// Sweep performs N Metropolis exchange attempts (Kawasaki dynamics: swap
// two neighbouring unlike spins, preserving composition) at temperature T
// and returns the acceptance fraction.
func (l *Lattice) Sweep(rng *stats.RNG, temperature float64) float64 {
	like, unlike := l.Model.PairEnergy(true), l.Model.PairEnergy(false)
	accepted := 0
	n := l.N()
	for t := 0; t < n; t++ {
		i := rng.Intn(n)
		j := int(l.nb[i][rng.Intn(6)])
		if l.Spins[i] == l.Spins[j] {
			continue
		}
		before := l.siteEnergy(i, like, unlike) + l.siteEnergy(j, like, unlike)
		l.Spins[i], l.Spins[j] = l.Spins[j], l.Spins[i]
		after := l.siteEnergy(i, like, unlike) + l.siteEnergy(j, like, unlike)
		dE := after - before
		if dE <= 0 || rng.Float64() < math.Exp(-dE/temperature) {
			accepted++
		} else {
			l.Spins[i], l.Spins[j] = l.Spins[j], l.Spins[i]
		}
	}
	return float64(accepted) / float64(n)
}

// Anneal runs sweeps at temperature T after equilibration and returns the
// mean order parameter and mean energy per site.
func (l *Lattice) Anneal(rng *stats.RNG, temperature float64, equil, measure int) (orderMean, energyPerSite float64) {
	for s := 0; s < equil; s++ {
		l.Sweep(rng, temperature)
	}
	var op, en float64
	for s := 0; s < measure; s++ {
		l.Sweep(rng, temperature)
		op += l.OrderParameter()
		en += l.TotalEnergy()
	}
	return op / float64(measure), en / float64(measure) / float64(l.N())
}

// TransitionCurve sweeps temperature and reports the order parameter at
// each point — the order–disorder transition curve of Liu et al.
func TransitionCurve(rng *stats.RNG, l int, model EnergyModel, temps []float64, equil, measure int) []float64 {
	out := make([]float64, len(temps))
	for i, T := range temps {
		lat := NewLattice(l, model)
		op, _ := lat.Anneal(rng.Split(), T, equil, measure)
		out[i] = op
	}
	return out
}
