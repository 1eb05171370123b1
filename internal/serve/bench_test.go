package serve

import (
	"testing"

	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/stats"
)

// forestOf returns the default fleet's forest model.
func forestOf(b *testing.B) *ForestModel {
	for _, c := range DefaultModels(7) {
		if f, ok := c.(*ForestModel); ok {
			return f
		}
	}
	b.Fatal("forest model missing from default fleet")
	return nil
}

// BenchmarkForestPredict measures the forest kernel alone: one row per
// op through the default fleet's 48-tree, depth-6 random forest, with no
// pool dispatch.
func BenchmarkForestPredict(b *testing.B) {
	f := forestOf(b).model
	rng := stats.NewRNG(1)
	x := make([][]float64, 256)
	for i := range x {
		x[i] = make([]float64, defaultFeatureDim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forestSink = f.Predict(x[i%len(x)])
	}
}

// forestSink keeps BenchmarkForestPredict's calls from being optimized
// away.
var forestSink float64

// BenchmarkServeHotPath measures the inference hot path the serving floor
// pins: one 256-row batch through the forest model per op ("batched")
// versus 256 single-row calls ("unbatched"). At >= 4 cores the batched
// path must be at least 2x faster per row — it amortizes dispatch and
// parallelizes across rows, while single-row calls can do neither.
func BenchmarkServeHotPath(b *testing.B) {
	m := forestOf(b)
	rng := stats.NewRNG(1)
	const rows = 256
	x := make([][]float64, rows)
	for i := range x {
		row := make([]float64, m.FeatureDim())
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
	}
	out := make([]float64, rows)
	pool := parallel.Shared()
	w := pool.Workers()

	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictBatch(pool, w, x, out)
		}
	})
	b.Run("unbatched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < rows; j++ {
				m.PredictBatch(pool, w, x[j:j+1], out[j:j+1])
			}
		}
	})
}

// BenchmarkServeRun measures a full serving simulation of the test
// workload — admission, batching, dispatch, pricing, and inference — per
// op, the end-to-end cost the S-series experiment pays.
func BenchmarkServeRun(b *testing.B) {
	p := platform.MustLookup("summit")
	models := DefaultModels(7)
	spec := testTraffic()
	reqs, err := spec.Generate(42, models)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Platform: p, Models: models, Horizon: spec.Horizon}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
