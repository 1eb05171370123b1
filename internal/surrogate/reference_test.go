package surrogate

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"summitscale/internal/stats"
)

// refNode is the pointer-linked tree node RandomForest must reproduce:
// feature -1 marks a leaf, and a split sends x[feature] <= thresh to lo
// and everything else (NaN included) to hi.
type refNode struct {
	feature       int
	thresh, value float64
	lo, hi        *refNode
}

// refFitForest is the direct builder: one heap node per split or leaf,
// drawing from rng in the same order FitForest must.
func refFitForest(rng *stats.RNG, x [][]float64, y []float64, nTrees, maxDepth, minLeaf int) []*refNode {
	mtry := int(math.Max(1, math.Sqrt(float64(len(x[0])))))
	var trees []*refNode
	for t := 0; t < nTrees; t++ {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		trees = append(trees, refBuildTree(rng, x, y, idx, maxDepth, minLeaf, mtry))
	}
	return trees
}

func refBuildTree(rng *stats.RNG, x [][]float64, y []float64, idx []int, depth, minLeaf, mtry int) *refNode {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	node := &refNode{feature: -1, value: mean}
	if depth <= 0 || len(idx) < 2*minLeaf {
		return node
	}
	bestSSE := math.Inf(1)
	bestFeat, bestThresh := -1, 0.0
	for t := 0; t < mtry; t++ {
		feat := rng.Intn(len(x[0]))
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
		return node
	}
	var loIdx, hiIdx []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			loIdx = append(loIdx, i)
		} else {
			hiIdx = append(hiIdx, i)
		}
	}
	node.feature, node.thresh = bestFeat, bestThresh
	node.lo = refBuildTree(rng, x, y, loIdx, depth-1, minLeaf, mtry)
	node.hi = refBuildTree(rng, x, y, hiIdx, depth-1, minLeaf, mtry)
	return node
}

func (n *refNode) predict(x []float64) float64 {
	for n.feature >= 0 {
		if x[n.feature] <= n.thresh {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.value
}

func refPredict(trees []*refNode, x []float64) float64 {
	var s float64
	for _, t := range trees {
		s += t.predict(x)
	}
	return s / float64(len(trees))
}

// sameTree checks that the flat subtree at i is ref, node for node in
// pre-order, and returns the index just past it.
func sameTree(t *testing.T, f *RandomForest, i int32, ref *refNode) int32 {
	t.Helper()
	n := f.nodes[i]
	if math.Float64bits(n.value) != math.Float64bits(ref.value) {
		t.Fatalf("node %d value %v, reference %v", i, n.value, ref.value)
	}
	if ref.feature < 0 {
		if n.feature != 0 || !math.IsInf(n.thresh, 1) || n.kids != [2]int32{i, i} {
			t.Fatalf("node %d is not a leaf: %+v", i, n)
		}
		return i + 1
	}
	if int(n.feature) != ref.feature || math.Float64bits(n.thresh) != math.Float64bits(ref.thresh) {
		t.Fatalf("node %d splits x[%d] <= %v, reference x[%d] <= %v", i, n.feature, n.thresh, ref.feature, ref.thresh)
	}
	if n.kids[0] != i+1 {
		t.Fatalf("node %d: lo child %d, want %d (pre-order)", i, n.kids[0], i+1)
	}
	hi := sameTree(t, f, n.kids[0], ref.lo)
	if n.kids[1] != hi {
		t.Fatalf("node %d: hi child %d, want %d (pre-order)", i, n.kids[1], hi)
	}
	return sameTree(t, f, hi, ref.hi)
}

// tieData draws features on a half-integer grid, so many samples sit
// exactly on the split thresholds.
func tieData(rng *stats.RNG, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = math.Round(2*rng.NormFloat64()) / 2
		}
		y[i] = x[i][0] - 2*x[i][1]*x[i][2] + math.Sin(x[i][3]) + 0.1*rng.NormFloat64()
	}
	return x, y
}

// probeRows are the inputs a prediction is checked on: the training rows,
// every split threshold of every tree in each feature (ties go lo), and
// NaN and ±Inf in each feature.
func probeRows(x [][]float64, trees []*refNode) [][]float64 {
	d := len(x[0])
	rows := append([][]float64(nil), x...)
	var walk func(n *refNode)
	walk = func(n *refNode) {
		if n.feature < 0 {
			return
		}
		row := make([]float64, d)
		for j := range row {
			row[j] = n.thresh
		}
		rows = append(rows, row)
		walk(n.lo)
		walk(n.hi)
	}
	for _, tr := range trees {
		walk(tr)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for j := 0; j < d; j++ {
			row := append([]float64(nil), x[j]...)
			row[j] = v
			rows = append(rows, row)
		}
		all := make([]float64, d)
		for j := range all {
			all[j] = v
		}
		rows = append(rows, all)
	}
	return rows
}

// TestForestMatchesReference: FitForest builds the reference builder's
// splits in pre-order, and Predict returns the reference's bits, for 1–9
// trees (every tail of the four-wide walk), depth 0–8, and minimum leaf
// sizes that stop splits early.
func TestForestMatchesReference(t *testing.T) {
	// ForestModel.WeightBytes prices four words per node.
	if size := unsafe.Sizeof(forestNode{}); size != 32 {
		t.Fatalf("forestNode is %d bytes, want 32", size)
	}
	x, y := tieData(stats.NewRNG(21), 96, 4)
	for nTrees := 1; nTrees <= 9; nTrees++ {
		for depth := 0; depth <= 8; depth++ {
			for _, minLeaf := range []int{1, 3, 30} {
				seed := uint64(1000*nTrees + 10*depth + minLeaf)
				f := FitForest(stats.NewRNG(seed), x, y, nTrees, depth, minLeaf)
				ref := refFitForest(stats.NewRNG(seed), x, y, nTrees, depth, minLeaf)
				if f.NumTrees() != len(ref) {
					t.Fatalf("%d trees, reference %d", f.NumTrees(), len(ref))
				}
				next := int32(0)
				for i, r := range ref {
					if f.roots[i] != next {
						t.Fatalf("trees=%d depth=%d minLeaf=%d: root %d at %d, want %d", nTrees, depth, minLeaf, i, f.roots[i], next)
					}
					next = sameTree(t, f, next, r)
				}
				if int(next) != len(f.nodes) {
					t.Fatalf("%d nodes, reference %d", len(f.nodes), next)
				}
				for _, row := range probeRows(x, ref) {
					got, want := f.Predict(row), refPredict(ref, row)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trees=%d depth=%d minLeaf=%d: Predict(%v) = %v, reference %v", nTrees, depth, minLeaf, row, got, want)
					}
				}
			}
		}
	}
}
