package md

import (
	"math"
	"testing"

	"summitscale/internal/stats"
)

func newTestSystem(t *testing.T, n int, temp float64) *System {
	t.Helper()
	rng := stats.NewRNG(1)
	return NewLattice(rng, n, 0.8, temp, NewLennardJones(2.5))
}

func TestLatticeSetup(t *testing.T) {
	s := newTestSystem(t, 3, 1.0)
	if s.N() != 27 {
		t.Fatalf("N = %d", s.N())
	}
	// Center-of-mass momentum removed.
	var p Vec3
	for _, v := range s.Vel {
		p = p.Add(v)
	}
	if math.Abs(p.X)+math.Abs(p.Y)+math.Abs(p.Z) > 1e-10 {
		t.Fatalf("net momentum %v", p)
	}
	// Density respected.
	wantBox := math.Cbrt(27 / 0.8)
	if math.Abs(s.Box-wantBox) > 1e-12 {
		t.Fatalf("box = %v", s.Box)
	}
}

func TestLennardJonesProperties(t *testing.T) {
	lj := NewLennardJones(2.5)
	// Minimum at r = 2^(1/6): force crosses zero.
	rmin2 := math.Pow(2, 1.0/3)
	_, fAtMin := lj.EnergyForce(rmin2)
	if math.Abs(fAtMin) > 1e-10 {
		t.Errorf("force at minimum = %v", fAtMin)
	}
	// Repulsive inside, attractive outside.
	if _, f := lj.EnergyForce(0.9 * rmin2); f <= 0 {
		t.Error("not repulsive inside the minimum")
	}
	if _, f := lj.EnergyForce(1.2 * rmin2); f >= 0 {
		t.Error("not attractive outside the minimum")
	}
	// Energy continuous at the cutoff (shifted).
	e, _ := lj.EnergyForce(2.5*2.5 - 1e-9)
	if math.Abs(e) > 1e-6 {
		t.Errorf("energy at cutoff = %v", e)
	}
	// Zero beyond cutoff.
	if e, f := lj.EnergyForce(7); e != 0 || f != 0 {
		t.Error("interaction beyond cutoff")
	}
}

// kineticEnergy returns the system's total kinetic energy.
func kineticEnergy(s *System) float64 {
	var ke float64
	for _, v := range s.Vel {
		ke += 0.5 * s.Mass * v.Norm2()
	}
	return ke
}

// TestEnergyConservation is the canonical MD integrator check: total
// energy drift over many velocity-Verlet steps must be small.
func TestEnergyConservation(t *testing.T) {
	s := newTestSystem(t, 3, 0.5)
	e0 := kineticEnergy(s) + s.ComputeForces()
	for i := 0; i < 200; i++ {
		s.Step(0.002)
	}
	e1 := kineticEnergy(s) + s.ComputeForces()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.02 {
		t.Fatalf("energy drift %.4f (%v -> %v)", drift, e0, e1)
	}
}

func TestMomentumConservation(t *testing.T) {
	s := newTestSystem(t, 3, 1.0)
	for i := 0; i < 50; i++ {
		s.Step(0.002)
	}
	var p Vec3
	for _, v := range s.Vel {
		p = p.Add(v)
	}
	if math.Abs(p.X)+math.Abs(p.Y)+math.Abs(p.Z) > 1e-8 {
		t.Fatalf("momentum drift %v", p)
	}
}

func TestCellListMatchesBruteForce(t *testing.T) {
	// A system large enough for cells (box/rc >= 3).
	rng := stats.NewRNG(2)
	s := NewLattice(rng, 8, 0.8, 1.0, NewLennardJones(2.5))
	if m := int(s.Box / s.Pot.Cutoff()); m < 3 {
		t.Fatalf("test system too small for cell lists (m=%d)", m)
	}
	eCell := s.ComputeForces()
	fCell := append([]Vec3(nil), s.force...)

	// Brute force via a single-cell fallback: shrink cutoff ratio by using
	// a potential whose Cutoff forces m=1.
	big := *s
	big.Pot = NewLennardJones(2.5)
	// Force m=1 by computing with the naive double loop.
	for i := range big.force {
		big.force[i] = Vec3{}
	}
	var eBrute float64
	for i := 0; i < big.N(); i++ {
		for j := i + 1; j < big.N(); j++ {
			eBrute += big.pairInteract(i, j)
		}
	}
	if math.Abs(eCell-eBrute)/math.Abs(eBrute) > 1e-10 {
		t.Fatalf("cell energy %v vs brute %v", eCell, eBrute)
	}
	for i := range fCell {
		d := fCell[i].Sub(big.force[i])
		if d.Norm2() > 1e-18 {
			t.Fatalf("force mismatch on particle %d: %v vs %v", i, fCell[i], big.force[i])
		}
	}
}

func TestTemperatureMatchesSetup(t *testing.T) {
	rng := stats.NewRNG(3)
	s := NewLattice(rng, 6, 0.8, 1.5, NewLennardJones(2.5))
	// Before dynamics, kinetic temperature ~ setup temperature (sampling
	// noise scales as 1/sqrt(3N/2)).
	if temp := 2 * kineticEnergy(s) / (3 * float64(s.N())); math.Abs(temp-1.5) > 0.2 {
		t.Fatalf("initial temperature = %v", temp)
	}
}

func TestTabulatedApproximatesLJ(t *testing.T) {
	lj := NewLennardJones(2.5)
	tab := NewTabulatedFrom(lj.EnergyForce, 2.5, 4096)
	for _, r2 := range []float64{0.9, 1.2, 2.0, 4.0, 6.0} {
		eL, fL := lj.EnergyForce(r2)
		eT, fT := tab.EnergyForce(r2)
		if math.Abs(eL-eT) > 0.02*(1+math.Abs(eL)) || math.Abs(fL-fT) > 0.05*(1+math.Abs(fL)) {
			t.Errorf("r2=%v: tabulated (%v,%v) vs LJ (%v,%v)", r2, eT, fT, eL, fL)
		}
	}
	if tab.Cutoff() != 2.5 {
		t.Fatal("cutoff lost")
	}
}

// TestLearnedPotentialDynamicsTrackReference runs the same initial system
// under the reference LJ potential and a tabulated "learned" copy and
// checks the trajectories stay close over a short horizon — the §V MD
// potentials motif in miniature.
func TestLearnedPotentialDynamicsTrackReference(t *testing.T) {
	lj := NewLennardJones(2.5)
	tab := NewTabulatedFrom(lj.EnergyForce, 2.5, 65536)

	ref := NewLattice(stats.NewRNG(4), 3, 0.8, 0.5, lj)
	learned := NewLattice(stats.NewRNG(4), 3, 0.8, 0.5, tab)
	for i := 0; i < 20; i++ {
		ref.Step(0.002)
		learned.Step(0.002)
	}
	var maxDev float64
	for i := range ref.Pos {
		d := ref.minImage(ref.Pos[i].Sub(learned.Pos[i]))
		if dev := math.Sqrt(d.Norm2()); dev > maxDev {
			maxDev = dev
		}
	}
	if maxDev > 0.05 {
		t.Fatalf("learned-potential trajectory deviates by %v", maxDev)
	}
}

func BenchmarkStep125Particles(b *testing.B) {
	rng := stats.NewRNG(1)
	s := NewLattice(rng, 5, 0.8, 1.0, NewLennardJones(2.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(0.002)
	}
}
