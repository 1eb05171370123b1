package serve

import (
	"fmt"
	"math"

	"summitscale/internal/nn"
	"summitscale/internal/parallel"
	"summitscale/internal/stats"
	"summitscale/internal/surrogate"
)

// Model is one servable surrogate. Implementations must make
// predictInto a pure, bit-deterministic function of the rows — each
// output element is written by exactly one pool chunk — so a batch
// predicted at any worker count yields identical bytes.
type Model interface {
	// Name is the routing key requests address.
	Name() string
	// FeatureDim is the expected input row width.
	FeatureDim() int
	// FlopsPerSample is the arithmetic cost of one prediction, for the
	// roofline service-time pricing.
	FlopsPerSample() float64
	// WeightBytes is the parameter traffic a batch streams once.
	WeightBytes() float64
	// BytesPerSample is the per-row activation/feature traffic.
	BytesPerSample() float64
	// PredictBatch predicts every row into out (len(out) == len(rows)),
	// sharding rows over the pool with at most workers participants
	// (workers <= 0 means the full pool width).
	PredictBatch(pool *parallel.WorkerPool, workers int, rows [][]float64, out []float64)
}

// batchGrain is the row-chunk size every model shards batches by. It
// depends only on the constant, never on pool width, so chunk boundaries
// — and therefore float evaluation order — are fixed for a given batch.
const batchGrain = 8

// RidgeModel serves a surrogate.Ridge (the BIC-selected linear surrogate
// of Liu et al.'s alloy workflow).
type RidgeModel struct {
	name  string
	model *surrogate.Ridge
}

// NewRidgeModel wraps a fitted ridge regression for serving.
func NewRidgeModel(name string, m *surrogate.Ridge) *RidgeModel {
	return &RidgeModel{name: name, model: m}
}

// Name implements Model.
func (m *RidgeModel) Name() string { return m.name }

// FeatureDim implements Model.
func (m *RidgeModel) FeatureDim() int { return len(m.model.Weights) - 1 }

// FlopsPerSample implements Model: one multiply-add per weight.
func (m *RidgeModel) FlopsPerSample() float64 { return 2 * float64(len(m.model.Weights)) }

// WeightBytes implements Model.
func (m *RidgeModel) WeightBytes() float64 { return 8 * float64(len(m.model.Weights)) }

// BytesPerSample implements Model: the feature row in and one value out.
func (m *RidgeModel) BytesPerSample() float64 { return 8 * float64(len(m.model.Weights)) }

// PredictBatch implements Model.
func (m *RidgeModel) PredictBatch(pool *parallel.WorkerPool, workers int, rows [][]float64, out []float64) {
	pool.RunRangeMax(workers, len(rows), batchGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.model.Predict(rows[i])
		}
	})
}

// ForestModel serves a surrogate.RandomForest (Glaser et al.'s
// binding-affinity scoring-function family).
type ForestModel struct {
	name   string
	model  *surrogate.RandomForest
	dim    int
	trees  float64
	depthF float64
}

// NewForestModel wraps a fitted random forest for serving. dim is the
// feature width the forest was trained on (trees don't record it).
func NewForestModel(name string, m *surrogate.RandomForest, dim int) *ForestModel {
	return &ForestModel{
		name: name, model: m, dim: dim,
		trees:  float64(m.NumTrees()),
		depthF: float64(m.MaxDepth),
	}
}

// Name implements Model.
func (m *ForestModel) Name() string { return m.name }

// FeatureDim implements Model.
func (m *ForestModel) FeatureDim() int { return m.dim }

// FlopsPerSample implements Model: one compare per level per tree plus
// the ensemble average.
func (m *ForestModel) FlopsPerSample() float64 { return m.trees*m.depthF + m.trees }

// WeightBytes implements Model: ~4 words per node over the full ensemble.
func (m *ForestModel) WeightBytes() float64 {
	return 32 * m.trees * (math.Exp2(m.depthF+1) - 1)
}

// BytesPerSample implements Model.
func (m *ForestModel) BytesPerSample() float64 { return 8 * float64(m.dim+1) }

// PredictBatch implements Model.
func (m *ForestModel) PredictBatch(pool *parallel.WorkerPool, workers int, rows [][]float64, out []float64) {
	pool.RunRangeMax(workers, len(rows), batchGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.model.Predict(rows[i])
		}
	})
}

// denseLayer is one extracted fully connected layer: w is out×in,
// row-major, so output o's weights are w[o*in : (o+1)*in].
type denseLayer struct {
	w    []float64
	b    []float64
	relu bool
}

// forward writes the layer's outputs for the activations cur into nxt
// (len(nxt) == len(l.b)). Four outputs accumulate side by side, so four
// independent add chains overlap; each output still starts from its bias
// and adds w[o][i]*cur[i] in input order, the same operations in the same
// order as a one-output-at-a-time loop.
func (l *denseLayer) forward(cur, nxt []float64) {
	out := len(l.b)
	in := len(l.w) / out
	o := 0
	for ; o+4 <= out; o += 4 {
		w0 := l.w[o*in:][:len(cur)]
		w1 := l.w[(o+1)*in:][:len(cur)]
		w2 := l.w[(o+2)*in:][:len(cur)]
		w3 := l.w[(o+3)*in:][:len(cur)]
		s0, s1, s2, s3 := l.b[o], l.b[o+1], l.b[o+2], l.b[o+3]
		for i, v := range cur {
			s0 += w0[i] * v
			s1 += w1[i] * v
			s2 += w2[i] * v
			s3 += w3[i] * v
		}
		nxt[o], nxt[o+1], nxt[o+2], nxt[o+3] = l.act(s0), l.act(s1), l.act(s2), l.act(s3)
	}
	for ; o < out; o++ {
		w := l.w[o*in:][:len(cur)]
		s := l.b[o]
		for i, v := range cur {
			s += w[i] * v
		}
		nxt[o] = l.act(s)
	}
}

// act applies the layer's activation. ReLU compares rather than calling
// max, which would turn a -0 pre-activation into +0.
func (l *denseLayer) act(s float64) float64 {
	if l.relu && s < 0 {
		s = 0
	}
	return s
}

// MLPModel serves a feed-forward network with weights extracted from an
// internal/nn module into flat slices: inference needs no autograd graph,
// and each batch row runs through the persistent worker pool.
type MLPModel struct {
	name   string
	layers []denseLayer
	in     int
	flops  float64
	bytes  float64
}

// NewMLPModel builds a served MLP with the given hidden widths, weights
// drawn deterministically from seed via internal/nn's Xavier init. All
// hidden layers use ReLU; the output layer is linear with width 1.
func NewMLPModel(name string, seed uint64, widths []int) *MLPModel {
	rng := stats.NewRNG(seed)
	arch := append(append([]int{}, widths...), 1)
	seq := nn.NewMLP(rng, arch, nil)
	m := &MLPModel{name: name, in: widths[0]}
	params := seq.Params()
	// nn.NewMLP emits params pairwise (W then b per layer).
	for li := 0; li*2+1 < len(params); li++ {
		wv, bv := params[li*2].Value.Data, params[li*2+1].Value.Data
		in, out := arch[li], arch[li+1]
		layer := denseLayer{w: make([]float64, out*in), b: make([]float64, out), relu: li < len(arch)-2}
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				layer.w[o*in+i] = wv.At(i, o)
			}
			layer.b[o] = bv.At(o)
		}
		m.layers = append(m.layers, layer)
		m.flops += 2 * float64(in) * float64(out)
		m.bytes += 8 * float64(in+1) * float64(out)
	}
	return m
}

// Name implements Model.
func (m *MLPModel) Name() string { return m.name }

// FeatureDim implements Model.
func (m *MLPModel) FeatureDim() int { return m.in }

// FlopsPerSample implements Model.
func (m *MLPModel) FlopsPerSample() float64 { return m.flops }

// WeightBytes implements Model.
func (m *MLPModel) WeightBytes() float64 { return m.bytes }

// BytesPerSample implements Model: widest activation in and out.
func (m *MLPModel) BytesPerSample() float64 { return 16 * float64(m.widest()) }

// widest is the widest activation: the input or any layer's output.
func (m *MLPModel) widest() int {
	widest := m.in
	for _, l := range m.layers {
		if len(l.b) > widest {
			widest = len(l.b)
		}
	}
	return widest
}

// forwardRow evaluates one sample, ping-ponging between the caller's two
// scratch activation buffers (each sized to the widest layer).
func (m *MLPModel) forwardRow(row, bufA, bufB []float64) float64 {
	cur := bufA[:len(row)]
	copy(cur, row)
	spare := bufB
	for i := range m.layers {
		l := &m.layers[i]
		nxt := spare[:len(l.b)]
		l.forward(cur, nxt)
		cur, spare = nxt, cur[:cap(cur)]
	}
	return cur[0]
}

// mlpStackWidth is the widest activation whose scratch PredictBatch keeps
// on each chunk's stack; a wider model takes heap scratch per chunk.
const mlpStackWidth = 64

// PredictBatch implements Model.
func (m *MLPModel) PredictBatch(pool *parallel.WorkerPool, workers int, rows [][]float64, out []float64) {
	widest := m.widest()
	pool.RunRangeMax(workers, len(rows), batchGrain, func(lo, hi int) {
		var stackA, stackB [mlpStackWidth]float64
		bufA, bufB := stackA[:], stackB[:]
		if widest > mlpStackWidth {
			bufA, bufB = make([]float64, widest), make([]float64, widest)
		}
		for i := lo; i < hi; i++ {
			out[i] = m.forwardRow(rows[i], bufA, bufB)
		}
	})
}

// FeatureDim is the shared input width of the default model fleet.
const defaultFeatureDim = 8

// DefaultModels builds the standard serving fleet, deterministically from
// seed: a BIC-selected ridge surrogate, a random-forest scoring function,
// and a small MLP — the three surrogate families the paper's workflows
// couple to simulations. The training sets are synthetic but seeded, so
// the fleet's weights (and therefore every served prediction) are a pure
// function of the seed.
func DefaultModels(seed uint64) []Model {
	rng := stats.NewRNG(seed)
	n, d := 256, defaultFeatureDim
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		// A smooth nonlinear response with noise: enough structure that
		// all three families fit something meaningful.
		y[i] = 2*row[0] - row[1] + 0.5*row[2]*row[3] + math.Sin(row[4]) + 0.1*rng.NormFloat64()
	}
	ridge, _, err := surrogate.SelectByBIC(x, y, 1e-3)
	if err != nil {
		panic(fmt.Sprintf("serve: default ridge fit failed: %v", err))
	}
	forest := surrogate.FitForest(rng.Split(), x, y, 48, 6, 4)
	return []Model{
		NewRidgeModel("ridge", ridge),
		NewForestModel("forest", forest, d),
		NewMLPModel("mlp", rng.Uint64(), []int{d, 32, 16}),
	}
}
