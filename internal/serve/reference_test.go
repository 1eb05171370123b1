package serve

import (
	"math"
	"sort"
	"testing"

	"summitscale/internal/nn"
	"summitscale/internal/stats"
)

// refLayer is the nested-slice layer MLPModel must reproduce: w[o] is
// output o's weight row.
type refLayer struct {
	w    [][]float64
	b    []float64
	relu bool
}

// refLayers extracts the same nn.NewMLP weights NewMLPModel serves, one
// heap row per output.
func refLayers(seed uint64, widths []int) []refLayer {
	arch := append(append([]int{}, widths...), 1)
	params := nn.NewMLP(stats.NewRNG(seed), arch, nil).Params()
	var layers []refLayer
	for li := 0; li*2+1 < len(params); li++ {
		wv, bv := params[li*2].Value.Data, params[li*2+1].Value.Data
		in, out := arch[li], arch[li+1]
		l := refLayer{w: make([][]float64, out), b: make([]float64, out), relu: li < len(arch)-2}
		for o := range l.w {
			l.w[o] = make([]float64, in)
			for i := range l.w[o] {
				l.w[o][i] = wv.At(i, o)
			}
			l.b[o] = bv.At(o)
		}
		layers = append(layers, l)
	}
	return layers
}

// forward is the one-output-at-a-time loop: bias, then w[o][i]*v added
// in input order, then ReLU by comparison.
func (l refLayer) forward(cur []float64) []float64 {
	nxt := make([]float64, len(l.w))
	for o, w := range l.w {
		s := l.b[o]
		for i, v := range cur {
			s += w[i] * v
		}
		if l.relu && s < 0 {
			s = 0
		}
		nxt[o] = s
	}
	return nxt
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMLPMatchesReference: every layer of the served MLP, and forwardRow
// end to end, return the nested-loop reference's bits, for output widths
// that fill the four-wide loop exactly (32, 16) and ones that leave a
// tail (5, 3, 1).
func TestMLPMatchesReference(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, widths := range [][]int{{8, 5, 3}, {8, 32, 16}} {
		const seed = 11
		m := NewMLPModel("mlp", seed, widths)
		ref := refLayers(seed, widths)
		if len(m.layers) != len(ref) {
			t.Fatalf("%v: %d layers, reference %d", widths, len(m.layers), len(ref))
		}
		bufA, bufB := make([]float64, 32), make([]float64, 32)
		for r := 0; r < 64; r++ {
			row := make([]float64, widths[0])
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			cur := row
			for li := range ref {
				want := ref[li].forward(cur)
				got := make([]float64, len(want))
				m.layers[li].forward(cur, got)
				if !sameBits(got, want) {
					t.Fatalf("%v layer %d: %v, reference %v", widths, li, got, want)
				}
				cur = want
			}
			if got := m.forwardRow(row, bufA, bufB); math.Float64bits(got) != math.Float64bits(cur[0]) {
				t.Fatalf("%v: forwardRow = %v, reference %v", widths, got, cur[0])
			}
		}
	}
}

// TestReLUKeepsNegativeZero: a -0 pre-activation leaves a ReLU layer as
// -0 (max(-0, 0) would return +0), in the four-wide loop and in the tail.
func TestReLUKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const in, out = 3, 5
	l := denseLayer{w: make([]float64, out*in), b: make([]float64, out), relu: true}
	for k := range l.w {
		l.w[k] = 1
	}
	for o := range l.b {
		l.b[o] = negZero
	}
	cur := []float64{negZero, negZero, negZero}
	got := make([]float64, out)
	l.forward(cur, got)
	want := refLayer{w: [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}}, b: l.b, relu: true}.forward(cur)
	if !sameBits(got, want) {
		t.Fatalf("forward = %v, reference %v", got, want)
	}
	for o, v := range got {
		if v != 0 || !math.Signbit(v) {
			t.Fatalf("output %d = %v (signbit %v), want -0", o, v, math.Signbit(v))
		}
	}
	m := &MLPModel{layers: []denseLayer{l}, in: in}
	if v := m.forwardRow(cur, make([]float64, out), make([]float64, out)); !math.Signbit(v) {
		t.Fatalf("forwardRow = %v, want -0", v)
	}
}

// TestQuantileMatchesSort: selecting an order statistic in place returns
// the bits that sort-then-index reads. The samples are positive, like
// served latencies, and mostly heavily tied (a handful of distinct
// values), some ascending or descending already; lengths 0 to 3 and
// 1,000; q = 0, 0.5, 0.99 and 1, selected one after another on the same
// slice, as finish does.
func TestQuantileMatchesSort(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, n := range []int{0, 1, 2, 3, 1000} {
		for trial := 0; trial < 24; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch trial % 4 {
				case 0:
					xs[i] = 1e-3 * float64(1+rng.Intn(5))
				case 1:
					xs[i] = 1e-3 + rng.Float64()
				case 2:
					xs[i] = 1e-3 * float64(1+i/7) // ascending, in runs of ties
				default:
					xs[i] = 1e-3 * float64(n-i/3) // descending, in runs of ties
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				want := 0.0
				if n > 0 {
					want = sorted[int(q*float64(n-1))]
				}
				if got := quantile(xs, q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d q=%v: selected %v, sort-then-index %v", n, trial, q, got, want)
				}
			}
			again := append([]float64(nil), xs...)
			sort.Float64s(again)
			if !sameBits(again, sorted) {
				t.Fatalf("n=%d trial %d: selection changed the sample's values", n, trial)
			}
		}
	}
}
