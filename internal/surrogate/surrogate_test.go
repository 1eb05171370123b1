package surrogate

import (
	"math"
	"testing"

	"summitscale/internal/stats"
)

func linearData(rng *stats.RNG, n int, noise float64) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 2*x[i][0] - 1.5*x[i][1] + 0.5 + rng.NormFloat64()*noise
	}
	return x, y
}

func TestRidgeRecoversCoefficients(t *testing.T) {
	x, y := linearData(stats.NewRNG(1), 500, 0.01)
	m, err := FitRidge(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -1.5, 0, 0.5}
	for i, w := range want {
		if math.Abs(m.Weights[i]-w) > 0.02 {
			t.Fatalf("weights = %v, want %v", m.Weights, want)
		}
	}
	if mse := m.MSE(x, y); mse > 0.001 {
		t.Fatalf("MSE = %v", mse)
	}
}

func TestRidgeRegularizationShrinks(t *testing.T) {
	x, y := linearData(stats.NewRNG(2), 50, 0.1)
	loose, _ := FitRidge(x, y, 1e-6)
	tight, _ := FitRidge(x, y, 1e3)
	var nLoose, nTight float64
	for i := 0; i < 3; i++ { // exclude intercept
		nLoose += loose.Weights[i] * loose.Weights[i]
		nTight += tight.Weights[i] * tight.Weights[i]
	}
	if nTight >= nLoose {
		t.Fatalf("regularization did not shrink: %v vs %v", nTight, nLoose)
	}
}

func TestRidgeErrors(t *testing.T) {
	if _, err := FitRidge(nil, nil, 1); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := FitRidge([][]float64{{1}}, []float64{1, 2}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	x, y := linearData(stats.NewRNG(3), 20, 0.1)
	m, _ := FitRidge(x, y, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestBICPenalizesComplexity(t *testing.T) {
	// Same MSE, more parameters -> worse (higher) BIC.
	if BIC(0.5, 100, 2) >= BIC(0.5, 100, 10) {
		t.Fatal("BIC did not penalize parameters")
	}
	// Better MSE wins when parameters are equal.
	if BIC(0.1, 100, 3) >= BIC(0.5, 100, 3) {
		t.Fatal("BIC did not reward fit")
	}
}

// TestSelectByBICFindsTrueSupport: with targets depending on only the
// first two of six features, BIC selection should keep ~2 features rather
// than all six (the Liu et al. anti-overfitting device).
func TestSelectByBICFindsTrueSupport(t *testing.T) {
	rng := stats.NewRNG(4)
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, 6)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = 3*x[i][0] - 2*x[i][1] + rng.NormFloat64()*0.1
	}
	m, k, err := SelectByBIC(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("BIC selected %d features, want 2", k)
	}
	if m == nil {
		t.Fatal("nil model")
	}
}

// forestMSE returns f's mean squared error on a dataset.
func forestMSE(f *RandomForest, x [][]float64, y []float64) float64 {
	var s float64
	for i := range x {
		d := f.Predict(x[i]) - y[i]
		s += d * d
	}
	return s / float64(len(x))
}

func TestForestFitsNonlinearFunction(t *testing.T) {
	rng := stats.NewRNG(5)
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 4, rng.Float64() * 4}
		y[i] = math.Sin(x[i][0]) + 0.5*x[i][1]
	}
	f := FitForest(rng, x, y, 40, 6, 2)
	if mse := forestMSE(f, x, y); mse > 0.05 {
		t.Fatalf("forest training MSE = %v", mse)
	}
	// Held-out data.
	var heldMSE float64
	const m = 100
	for i := 0; i < m; i++ {
		xs := []float64{rng.Float64() * 4, rng.Float64() * 4}
		d := f.Predict(xs) - (math.Sin(xs[0]) + 0.5*xs[1])
		heldMSE += d * d
	}
	if heldMSE/m > 0.15 {
		t.Fatalf("forest held-out MSE = %v", heldMSE/m)
	}
}

func TestForestBeatsLinearOnNonlinear(t *testing.T) {
	rng := stats.NewRNG(6)
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64()*6 - 3}
		y[i] = math.Sin(2 * x[i][0]) // strongly nonlinear, zero linear trend
	}
	forest := FitForest(rng, x, y, 30, 6, 2)
	ridge, err := FitRidge(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if fm, rm := forestMSE(forest, x, y), ridge.MSE(x, y); fm >= rm {
		t.Fatalf("forest (%v) not better than ridge (%v) on sin(2x)", fm, rm)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	mk := func(seed uint64) float64 {
		rng := stats.NewRNG(seed)
		x, y := linearData(rng, 100, 0.2)
		f := FitForest(rng, x, y, 10, 4, 2)
		return f.Predict([]float64{0.5, -0.5, 0})
	}
	if mk(7) != mk(7) {
		t.Fatal("forest not deterministic")
	}
}

func TestSingularSystemError(t *testing.T) {
	// Duplicate feature columns with zero regularization -> singular.
	x := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	y := []float64{1, 2, 3}
	if _, err := FitRidge(x, y, 0); err == nil {
		t.Fatal("singular normal equations accepted")
	}
	// Regularization rescues it.
	if _, err := FitRidge(x, y, 1e-3); err != nil {
		t.Fatalf("ridge failed on collinear data: %v", err)
	}
}
