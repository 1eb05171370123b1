// Package surrogate implements the classical machine-learning methods the
// paper's projects use alongside deep learning (§III-C, §V): ridge /
// ordinary least squares regression with Bayesian-information-criterion
// model selection (the anti-overfitting device of Liu et al.'s alloy
// workflow), and random-forest regression (the binding-affinity scoring
// function of Glaser et al.).
package surrogate

import (
	"fmt"
	"math"
	"sort"

	"summitscale/internal/stats"
)

// Ridge is a linear model fit with L2 regularization.
type Ridge struct {
	Lambda  float64
	Weights []float64 // last entry is the intercept
}

// FitRidge solves (X'X + λI)w = X'y with an intercept column, via
// Gaussian elimination. Rows of x are samples.
func FitRidge(x [][]float64, y []float64, lambda float64) (*Ridge, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("surrogate: %d samples vs %d targets", n, len(y))
	}
	d := len(x[0]) + 1 // + intercept
	// Normal equations.
	a := make([][]float64, d)
	b := make([]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
	}
	row := make([]float64, d)
	for s := 0; s < n; s++ {
		copy(row, x[s])
		row[d-1] = 1
		for i := 0; i < d; i++ {
			b[i] += row[i] * y[s]
			for j := 0; j < d; j++ {
				a[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < d-1; i++ { // don't regularize the intercept
		a[i][i] += lambda
	}
	w, err := solve(a, b)
	if err != nil {
		return nil, err
	}
	return &Ridge{Lambda: lambda, Weights: w}, nil
}

// Predict evaluates the model on one sample.
func (r *Ridge) Predict(x []float64) float64 {
	d := len(r.Weights)
	if len(x) != d-1 {
		panic(fmt.Sprintf("surrogate: %d features for %d weights", len(x), d-1))
	}
	out := r.Weights[d-1]
	for i, v := range x {
		out += r.Weights[i] * v
	}
	return out
}

// solve performs Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("surrogate: singular system at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = m[i][n] / m[i][i]
	}
	return out, nil
}

// MSE returns the model's mean squared error on a dataset.
func (r *Ridge) MSE(x [][]float64, y []float64) float64 {
	var s float64
	for i := range x {
		d := r.Predict(x[i]) - y[i]
		s += d * d
	}
	return s / float64(len(x))
}

// BIC returns the Bayesian information criterion of a fit: n·ln(MSE) +
// k·ln(n). Lower is better; the k·ln(n) term penalizes complexity, the
// device Liu et al. use "to avoid overfitting while still extracting the
// maximal information".
func BIC(mse float64, nSamples, nParams int) float64 {
	if mse <= 0 {
		mse = 1e-300
	}
	return float64(nSamples)*math.Log(mse) + float64(nParams)*math.Log(float64(nSamples))
}

// SelectByBIC fits ridge models on nested feature prefixes (1..d features)
// and returns the model with the lowest BIC and its feature count.
func SelectByBIC(x [][]float64, y []float64, lambda float64) (*Ridge, int, error) {
	if len(x) == 0 {
		return nil, 0, fmt.Errorf("surrogate: empty dataset")
	}
	d := len(x[0])
	bestBIC := math.Inf(1)
	var best *Ridge
	bestK := 0
	for k := 1; k <= d; k++ {
		sub := make([][]float64, len(x))
		for i := range x {
			sub[i] = x[i][:k]
		}
		m, err := FitRidge(sub, y, lambda)
		if err != nil {
			continue
		}
		bic := BIC(m.MSE(sub, y), len(x), k+1)
		if bic < bestBIC {
			bestBIC, best, bestK = bic, m, k
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("surrogate: no model could be fit")
	}
	return best, bestK, nil
}

// forestNode is one node of a flattened regression tree, 32 bytes. A walk
// moves to kids[0] when x[feature] <= thresh and to kids[1] otherwise
// (NaN included). A leaf keeps its value with thresh = +Inf, feature 0
// and both kids pointing at itself, so a walk needs no leaf test: it
// stays put once it reaches one.
type forestNode struct {
	thresh, value float64
	feature       int32
	kids          [2]int32
}

// next is one step of a walk from n: kids[0] on x[feature] <= thresh,
// kids[1] otherwise.
func (n *forestNode) next(x []float64) int32 {
	var k int
	if !(x[n.feature] <= n.thresh) {
		k = 1
	}
	return n.kids[k]
}

// RandomForest is a bagged ensemble of depth-limited regression trees —
// Glaser et al.'s scoring-function family. Every tree lives in one flat
// node array in pre-order; roots[t] indexes tree t's root.
type RandomForest struct {
	MaxDepth int
	MinLeaf  int
	nodes    []forestNode
	roots    []int32
	// depth is the longest root-to-leaf path of any tree: a walk of that
	// many steps ends on a leaf from every root.
	depth int
}

// NumTrees returns the ensemble size.
func (f *RandomForest) NumTrees() int { return len(f.roots) }

// FitForest trains nTrees trees on bootstrap resamples with random feature
// subsetting at each split.
func FitForest(rng *stats.RNG, x [][]float64, y []float64, nTrees, maxDepth, minLeaf int) *RandomForest {
	if len(x) == 0 || len(x) != len(y) {
		panic("surrogate: bad forest dataset")
	}
	f := &RandomForest{MaxDepth: maxDepth, MinLeaf: minLeaf}
	nFeat := len(x[0])
	mtry := int(math.Max(1, math.Sqrt(float64(nFeat))))
	for t := 0; t < nTrees; t++ {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		f.roots = append(f.roots, f.buildTree(rng, x, y, idx, maxDepth, minLeaf, mtry))
	}
	return f
}

// buildTree appends the subtree over the samples idx to f.nodes in
// pre-order (node, lo subtree, hi subtree) and returns its root's index.
func (f *RandomForest) buildTree(rng *stats.RNG, x [][]float64, y []float64, idx []int, depth, minLeaf, mtry int) int32 {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	me := int32(len(f.nodes))
	f.nodes = append(f.nodes, forestNode{thresh: math.Inf(1), value: mean, kids: [2]int32{me, me}})
	f.depth = max(f.depth, f.MaxDepth-depth)
	if depth <= 0 || len(idx) < 2*minLeaf {
		return me
	}
	bestSSE := math.Inf(1)
	bestFeat, bestThresh := -1, 0.0
	nFeat := len(x[0])
	for t := 0; t < mtry; t++ {
		feat := rng.Intn(nFeat)
		vals := make([]float64, len(idx))
		for k, i := range idx {
			vals[k] = x[i][feat]
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.25, 0.5, 0.75} {
			thresh := vals[int(q*float64(len(vals)-1))]
			sse, ok := splitSSE(x, y, idx, feat, thresh, minLeaf)
			if ok && sse < bestSSE {
				bestSSE, bestFeat, bestThresh = sse, feat, thresh
			}
		}
	}
	if bestFeat < 0 {
		return me
	}
	var loIdx, hiIdx []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			loIdx = append(loIdx, i)
		} else {
			hiIdx = append(hiIdx, i)
		}
	}
	lo := f.buildTree(rng, x, y, loIdx, depth-1, minLeaf, mtry)
	hi := f.buildTree(rng, x, y, hiIdx, depth-1, minLeaf, mtry)
	f.nodes[me] = forestNode{thresh: bestThresh, value: mean, feature: int32(bestFeat), kids: [2]int32{lo, hi}}
	return me
}

func splitSSE(x [][]float64, y []float64, idx []int, feat int, thresh float64, minLeaf int) (float64, bool) {
	var nLo, nHi int
	var sLo, sHi float64
	for _, i := range idx {
		if x[i][feat] <= thresh {
			nLo++
			sLo += y[i]
		} else {
			nHi++
			sHi += y[i]
		}
	}
	if nLo < minLeaf || nHi < minLeaf {
		return 0, false
	}
	mLo, mHi := sLo/float64(nLo), sHi/float64(nHi)
	var sse float64
	for _, i := range idx {
		var d float64
		if x[i][feat] <= thresh {
			d = y[i] - mLo
		} else {
			d = y[i] - mHi
		}
		sse += d * d
	}
	return sse, true
}

// Predict averages the ensemble. Four trees walk side by side, so their
// dependent node loads overlap, and every walk takes the forest's full
// depth because leaves loop to themselves; the leaves are still summed
// in tree order, so the result does not depend on the interleave.
func (f *RandomForest) Predict(x []float64) float64 {
	nodes, roots := f.nodes, f.roots
	var s float64
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		a, b, c, d := roots[t], roots[t+1], roots[t+2], roots[t+3]
		for range f.depth {
			a = nodes[a].next(x)
			b = nodes[b].next(x)
			c = nodes[c].next(x)
			d = nodes[d].next(x)
		}
		s += nodes[a].value
		s += nodes[b].value
		s += nodes[c].value
		s += nodes[d].value
	}
	for ; t < len(roots); t++ {
		a := roots[t]
		for range f.depth {
			a = nodes[a].next(x)
		}
		s += nodes[a].value
	}
	return s / float64(len(roots))
}
