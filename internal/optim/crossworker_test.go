package optim

import (
	"math"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/nn"
	"summitscale/internal/parallel"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// Cross-worker determinism: the sharded update loops are strictly
// elementwise, so running them through pools of widths 1, 2, 4 and 8
// with the production grain must be bit-identical — the property that
// lets Step fan out without perturbing training goldens. Each case
// shards the same free function Step dispatches.

func randSlices(seed uint64, n int) (wd, gd, aux []float64) {
	rng := stats.NewRNG(seed)
	wd, gd, aux = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range wd {
		wd[i] = rng.NormFloat64()
		gd[i] = rng.NormFloat64()
		aux[i] = rng.NormFloat64() * 0.1
	}
	return
}

func assertSame(t *testing.T, label string, w int, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s workers=%d: element %d differs: %v vs %v", label, w, i, got[i], want[i])
		}
	}
}

func TestSGDShardedDeterministicAcrossWorkers(t *testing.T) {
	const n = 100_003
	run := func(w int) []float64 {
		wd, gd, vd := randSlices(41, n)
		pool := parallel.NewWorkerPool(w)
		defer pool.Close()
		pool.RunRange(n, optimShardGrain, func(lo, hi int) {
			sgdMomentum(wd, gd, vd, 0.01, 0.9, 1e-4, lo, hi)
		})
		pool.RunRange(n, optimShardGrain, func(lo, hi int) {
			sgdPlain(wd, gd, 0.01, 1e-4, lo, hi)
		})
		return wd
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		assertSame(t, "sgd", w, run(w), ref)
	}
}

// TestAdamLambShardedDeterministicAcrossWorkers: Adam's element shards
// and LAMB's per-parameter tasks give the same bits at every pool width.
func TestAdamLambShardedDeterministicAcrossWorkers(t *testing.T) {
	const n = 70_001
	bc1, bc2 := 1-math.Pow(0.9, 3), 1-math.Pow(0.999, 3)
	run := func(w int) []float64 {
		wd, gd, md := randSlices(43, n)
		vd := make([]float64, n)
		for i := range vd {
			vd[i] = md[i] * md[i]
		}
		pool := parallel.NewWorkerPool(w)
		defer pool.Close()
		a := &Adam{Rate: 0.001, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
		pool.RunRange(n, optimShardGrain, func(lo, hi int) {
			adamRange(a, wd, gd, md, vd, bc1, bc2, lo, hi)
		})
		ps := lambParams(44, []int{n, 4096, 40_000, 7})
		l := &LAMB{Rate: 0.001, Beta1: 0.9, Beta2: 0.999, Eps: 1e-6, WeightDecay: 0.01}
		for step := 0; step < 3; step++ {
			setGrads(ps, uint64(step))
			l.stepOn(pool, ps)
		}
		for _, p := range ps {
			wd = append(wd, p.Value.Data.Data()...)
		}
		return wd
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		assertSame(t, "adam+lamb", w, run(w), ref)
	}
}

// TestStepShardedMatchesSerialLoop pins that Step's sharded branch (taken
// for parameters >= optimShardMin) computes exactly what the pre-shard
// serial loop computed.
func TestStepShardedMatchesSerialLoop(t *testing.T) {
	n := optimShardMin + 17 // force the sharded branch
	w := tensor.New(n)
	g := tensor.New(n)
	rng := stats.NewRNG(47)
	for i := 0; i < n; i++ {
		w.Data()[i] = rng.NormFloat64()
		g.Data()[i] = rng.NormFloat64()
	}
	wantW := append([]float64(nil), w.Data()...)
	wantV := make([]float64, n)
	for i := 0; i < n; i++ { // the seed's fused serial loop
		wantV[i] = 0.9*wantV[i] + (g.Data()[i] + 1e-4*wantW[i])
		wantW[i] -= 0.05 * wantV[i]
	}

	opt := &SGD{Rate: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	opt.Step([]nn.Param{{Name: "w", Value: &autograd.Value{Data: w, Grad: g}}})
	for i := range wantW {
		if w.Data()[i] != wantW[i] {
			t.Fatalf("sharded Step diverges from serial loop at %d: %v vs %v",
				i, w.Data()[i], wantW[i])
		}
	}
}
