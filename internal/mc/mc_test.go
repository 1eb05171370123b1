package mc

import (
	"math"
	"testing"

	"summitscale/internal/stats"
)

func refModel() ReferenceModel { return ReferenceModel{J: 1, Anharmonicity: 0.1} }

func TestGroundStateIsOrdered(t *testing.T) {
	l := NewLattice(6, refModel())
	if op := l.OrderParameter(); op != 1 {
		t.Fatalf("checkerboard order parameter = %v", op)
	}
	like, unlike := l.BondCounts()
	if like != 0 {
		t.Fatalf("checkerboard has %d like bonds", like)
	}
	if unlike != 6*6*6*3 {
		t.Fatalf("unlike bonds = %d, want %d", unlike, 6*6*6*3)
	}
}

func TestEnergyFromBondCounts(t *testing.T) {
	l := NewLattice(4, refModel())
	like, unlike := l.BondCounts()
	want := float64(like)*refModel().PairEnergy(true) + float64(unlike)*refModel().PairEnergy(false)
	if got := l.TotalEnergy(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy %v vs bond-count %v", got, want)
	}
}

func TestCompositionConserved(t *testing.T) {
	l := NewLattice(6, refModel())
	count := func() int {
		n := 0
		for _, s := range l.Spins {
			if s == 1 {
				n++
			}
		}
		return n
	}
	before := count()
	rng := stats.NewRNG(1)
	for i := 0; i < 20; i++ {
		l.Sweep(rng, 3.0)
	}
	if count() != before {
		t.Fatalf("Kawasaki dynamics changed composition: %d -> %d", before, count())
	}
}

func TestLowTemperatureStaysOrdered(t *testing.T) {
	l := NewLattice(6, refModel())
	rng := stats.NewRNG(2)
	op, _ := l.Anneal(rng, 0.5, 40, 20)
	if op < 0.85 {
		t.Fatalf("order parameter at T=0.5 is %v", op)
	}
}

func TestHighTemperatureDisorders(t *testing.T) {
	l := NewLattice(6, refModel())
	rng := stats.NewRNG(3)
	op, _ := l.Anneal(rng, 20.0, 60, 30)
	if op > 0.35 {
		t.Fatalf("order parameter at T=20 is %v", op)
	}
}

// TestOrderDisorderTransition reproduces the shape of Liu et al.'s §V-A
// result: the order parameter falls from ~1 to ~0 as temperature crosses
// the transition.
func TestOrderDisorderTransition(t *testing.T) {
	rng := stats.NewRNG(4)
	temps := []float64{0.5, 2.0, 6.0, 20.0}
	curve := TransitionCurve(rng, 6, refModel(), temps, 40, 20)
	if curve[0] < 0.85 {
		t.Fatalf("cold end not ordered: %v", curve)
	}
	if curve[len(curve)-1] > 0.35 {
		t.Fatalf("hot end not disordered: %v", curve)
	}
	// Monotone within noise: each point no more than 0.15 above the prior.
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+0.15 {
			t.Fatalf("order parameter not decreasing: %v", curve)
		}
	}
}

// TestLearnedModelReproducesTransition checks the surrogate path: a
// LearnedModel with coefficients close to the reference produces a
// matching transition curve — the property Liu et al.'s workflow relies
// on.
func TestLearnedModelReproducesTransition(t *testing.T) {
	temps := []float64{0.5, 6.0, 20.0}
	ref := TransitionCurve(stats.NewRNG(5), 6, refModel(), temps, 40, 20)
	learned := LearnedModel{LikeE: refModel().PairEnergy(true), UnlikeE: refModel().PairEnergy(false)}
	got := TransitionCurve(stats.NewRNG(5), 6, learned, temps, 40, 20)
	for i := range ref {
		if math.Abs(ref[i]-got[i]) > 0.2 {
			t.Fatalf("learned curve deviates at T=%v: %v vs %v", temps[i], got[i], ref[i])
		}
	}
}

func TestAcceptanceRates(t *testing.T) {
	rng := stats.NewRNG(6)
	cold := NewLattice(6, refModel())
	accCold := cold.Sweep(rng, 0.1)
	hot := NewLattice(6, refModel())
	for i := 0; i < 30; i++ {
		hot.Sweep(rng, 50)
	}
	accHot := hot.Sweep(rng, 50)
	if accCold >= accHot {
		t.Fatalf("acceptance should rise with temperature: %v vs %v", accCold, accHot)
	}
	if accHot <= 0.3 {
		t.Fatalf("hot acceptance = %v", accHot)
	}
}

// BenchmarkLatticeSweep measures one Metropolis sweep of the L = 6
// lattice W1 anneals, at T = 2, one of the temperatures W1 scans.
func BenchmarkLatticeSweep(b *testing.B) {
	l := NewLattice(6, refModel())
	rng := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Sweep(rng, 2.0)
	}
}
