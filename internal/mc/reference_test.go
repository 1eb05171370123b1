package mc

import (
	"math"
	"testing"

	"summitscale/internal/stats"
)

// refLattice is the direct Lattice Sweep must reproduce: neighbours are
// recomputed with % on every lookup and every bond asks the model for its
// energy.
type refLattice struct {
	L     int
	Spins []int8
	Model EnergyModel
}

func (l *refLattice) idx(x, y, z int) int {
	m := l.L
	x = (x%m + m) % m
	y = (y%m + m) % m
	z = (z%m + m) % m
	return (x*m+y)*m + z
}

func (l *refLattice) neighbors(i int) [6]int {
	m := l.L
	z := i % m
	y := (i / m) % m
	x := i / (m * m)
	return [6]int{
		l.idx(x+1, y, z), l.idx(x-1, y, z),
		l.idx(x, y+1, z), l.idx(x, y-1, z),
		l.idx(x, y, z+1), l.idx(x, y, z-1),
	}
}

func (l *refLattice) siteEnergy(i int) float64 {
	var e float64
	si := l.Spins[i]
	for _, j := range l.neighbors(i) {
		e += l.Model.PairEnergy(si == l.Spins[j])
	}
	return e
}

func (l *refLattice) TotalEnergy() float64 {
	var e float64
	for i := range l.Spins {
		e += l.siteEnergy(i)
	}
	return e / 2
}

func (l *refLattice) BondCounts() (like, unlike int) {
	for i := range l.Spins {
		for _, j := range l.neighbors(i) {
			if j > i {
				if l.Spins[i] == l.Spins[j] {
					like++
				} else {
					unlike++
				}
			}
		}
	}
	return like, unlike
}

func (l *refLattice) OrderParameter() float64 {
	var s float64
	m := l.L
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			for z := 0; z < m; z++ {
				sign := 1.0
				if (x+y+z)%2 == 1 {
					sign = -1
				}
				s += sign * float64(l.Spins[l.idx(x, y, z)])
			}
		}
	}
	return math.Abs(s) / float64(len(l.Spins))
}

func (l *refLattice) Sweep(rng *stats.RNG, temperature float64) float64 {
	accepted := 0
	n := len(l.Spins)
	for t := 0; t < n; t++ {
		i := rng.Intn(n)
		j := l.neighbors(i)[rng.Intn(6)]
		if l.Spins[i] == l.Spins[j] {
			continue
		}
		before := l.siteEnergy(i) + l.siteEnergy(j)
		l.Spins[i], l.Spins[j] = l.Spins[j], l.Spins[i]
		after := l.siteEnergy(i) + l.siteEnergy(j)
		dE := after - before
		if dE <= 0 || rng.Float64() < math.Exp(-dE/temperature) {
			accepted++
		} else {
			l.Spins[i], l.Spins[j] = l.Spins[j], l.Spins[i]
		}
	}
	return float64(accepted) / float64(n)
}

// TestNeighbourTableMatchesFormula: the table holds the % formula's six
// neighbours in order for every site, wrap-around duplicates included.
func TestNeighbourTableMatchesFormula(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 6} {
		lat := NewLattice(size, refModel())
		ref := &refLattice{L: size}
		if len(lat.nb) != lat.N() {
			t.Fatalf("L=%d: %d table rows for %d sites", size, len(lat.nb), lat.N())
		}
		for i, row := range lat.nb {
			want := ref.neighbors(i)
			for k := range row {
				if int(row[k]) != want[k] {
					t.Fatalf("L=%d site %d: neighbours %v, formula %v", size, i, row, want)
				}
			}
		}
	}
}

// TestSweepMatchesReference: from the same seed, Sweep and Anneal leave
// the reference's spins and return its acceptance, bond counts, order
// parameter and energy bits, for both energy models and for lattices
// small enough that neighbours repeat.
func TestSweepMatchesReference(t *testing.T) {
	models := []EnergyModel{refModel(), LearnedModel{LikeE: 0.93, UnlikeE: -1.07}}
	for _, model := range models {
		for _, size := range []int{1, 2, 3, 4, 6} {
			for _, temp := range []float64{0.5, 3, 20} {
				lat := NewLattice(size, model)
				ref := &refLattice{L: size, Spins: append([]int8(nil), lat.Spins...), Model: model}
				rng, refRNG := stats.NewRNG(uint64(size)*31+uint64(temp)), stats.NewRNG(uint64(size)*31+uint64(temp))
				for s := 0; s < 12; s++ {
					acc, refAcc := lat.Sweep(rng, temp), ref.Sweep(refRNG, temp)
					if math.Float64bits(acc) != math.Float64bits(refAcc) {
						t.Fatalf("%T L=%d T=%v sweep %d: acceptance %v, reference %v", model, size, temp, s, acc, refAcc)
					}
					for i := range lat.Spins {
						if lat.Spins[i] != ref.Spins[i] {
							t.Fatalf("%T L=%d T=%v sweep %d: spin %d differs", model, size, temp, s, i)
						}
					}
					like, unlike := lat.BondCounts()
					if refLike, refUnlike := ref.BondCounts(); like != refLike || unlike != refUnlike {
						t.Fatalf("%T L=%d T=%v sweep %d: bonds %d/%d, reference %d/%d", model, size, temp, s, like, unlike, refLike, refUnlike)
					}
					for _, pair := range [][2]float64{
						{lat.TotalEnergy(), ref.TotalEnergy()},
						{lat.OrderParameter(), ref.OrderParameter()},
					} {
						if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
							t.Fatalf("%T L=%d T=%v sweep %d: observable %v, reference %v", model, size, temp, s, pair[0], pair[1])
						}
					}
				}
				// Anneal is Sweep plus the two observables; it must land on
				// the same bits as the reference loop does from here.
				op, en := lat.Anneal(rng, temp, 3, 4)
				for s := 0; s < 3; s++ {
					ref.Sweep(refRNG, temp)
				}
				var refOp, refEn float64
				for s := 0; s < 4; s++ {
					ref.Sweep(refRNG, temp)
					refOp += ref.OrderParameter()
					refEn += ref.TotalEnergy()
				}
				refOp, refEn = refOp/4, refEn/4/float64(len(ref.Spins))
				if math.Float64bits(op) != math.Float64bits(refOp) || math.Float64bits(en) != math.Float64bits(refEn) {
					t.Fatalf("%T L=%d T=%v: Anneal (%v, %v), reference (%v, %v)", model, size, temp, op, en, refOp, refEn)
				}
			}
		}
	}
}
