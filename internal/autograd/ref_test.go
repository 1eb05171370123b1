package autograd

import (
	"fmt"
	"math"
	"testing"

	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// BatchNorm2D and ReLU keep every sum's element order and every
// expression's operation order, so they must equal the indexed reference
// loops below bit for bit. The references round every product on its
// own, as BatchNorm2D does, so the two agree on targets that would fuse
// a multiply-add.

// sameBits fails t unless got and want hold the same float64 bit
// patterns, so -0 differs from +0 and every NaN must line up.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// batchNorm2DIndexed is the indexed BatchNorm2D: the forward output and
// xhat, and the input, gain and shift gradients for upstream gradient nd.
func batchNorm2DIndexed(ad, gd, sd, nd []float64, nIn, c, h, w int, eps float64) (od, xd, gad, ggd, gsd []float64) {
	cnt := float64(nIn * h * w)
	od = make([]float64, len(ad))
	xd = make([]float64, len(ad))
	invStd := make([]float64, c)
	idx := func(img, ch, y, x int) int { return ((img*c+ch)*h+y)*w + x }
	for ch := 0; ch < c; ch++ {
		var mean float64
		for img := 0; img < nIn; img++ {
			for i := 0; i < h*w; i++ {
				mean += ad[idx(img, ch, 0, 0)+i]
			}
		}
		mean /= cnt
		var va float64
		for img := 0; img < nIn; img++ {
			for i := 0; i < h*w; i++ {
				d := ad[idx(img, ch, 0, 0)+i] - mean
				va += float64(d * d)
			}
		}
		va /= cnt
		is := 1 / math.Sqrt(va+eps)
		invStd[ch] = is
		for img := 0; img < nIn; img++ {
			base := idx(img, ch, 0, 0)
			for i := 0; i < h*w; i++ {
				xh := (ad[base+i] - mean) * is
				xd[base+i] = xh
				od[base+i] = float64(xh*gd[ch]) + sd[ch]
			}
		}
	}
	gad = make([]float64, len(ad))
	ggd = make([]float64, c)
	gsd = make([]float64, c)
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for img := 0; img < nIn; img++ {
			base := idx(img, ch, 0, 0)
			for i := 0; i < h*w; i++ {
				dy := float64(nd[base+i] * gd[ch])
				sumDy += dy
				sumDyXhat += float64(dy * xd[base+i])
				ggd[ch] += float64(nd[base+i] * xd[base+i])
				gsd[ch] += nd[base+i]
			}
		}
		for img := 0; img < nIn; img++ {
			base := idx(img, ch, 0, 0)
			for i := 0; i < h*w; i++ {
				dy := float64(nd[base+i] * gd[ch])
				gad[base+i] = invStd[ch] * (dy - sumDy/cnt - xd[base+i]*sumDyXhat/cnt)
			}
		}
	}
	return od, xd, gad, ggd, gsd
}

// signedZeros overwrites every fifth element of d with +0 and every
// seventh with -0.
func signedZeros(d []float64) []float64 {
	for i := range d {
		switch {
		case i%7 == 3:
			d[i] = math.Copysign(0, -1)
		case i%5 == 1:
			d[i] = 0
		}
	}
	return d
}

func TestBatchNorm2DMatchesIndexed(t *testing.T) {
	rng := stats.NewRNG(47)
	// train-cnn's two BatchNorm shapes, odd planes, and one to nine
	// channels: every remainder of the four-channel and two-channel
	// interleaves.
	shapes := [][4]int{{8, 8, 8, 8}, {8, 16, 4, 4}, {3, 5, 7, 2}, {2, 1, 1, 9}, {1, 3, 3, 3}}
	for c := 1; c <= 9; c++ {
		shapes = append(shapes, [4]int{3, c, 3, 5})
	}
	for _, s := range shapes {
		nIn, c, h, w := s[0], s[1], s[2], s[3]
		name := fmt.Sprintf("%v", s)
		x := tensor.Randn(rng, 2, nIn, c, h, w)
		signedZeros(x.Data())
		gain := tensor.Randn(rng, 1, c)
		shift := tensor.Randn(rng, 1, c)
		up := tensor.Randn(rng, 1, nIn, c, h, w)
		signedZeros(up.Data())
		od, _, gad, ggd, gsd := batchNorm2DIndexed(x.Data(), gain.Data(), shift.Data(), up.Data(), nIn, c, h, w, 1e-5)

		for _, arena := range []*tensor.Arena{nil, tensor.NewArena()} {
			a := NewLeaf(tensor.NewIn(arena, x.Shape()...), true)
			copy(a.Data.Data(), x.Data())
			g, sh := NewLeaf(gain, true), NewLeaf(shift, true)
			out := BatchNorm2D(a, g, sh, 1e-5)
			sameBits(t, name+" forward", out.Data.Data(), od)
			seed := tensor.NewIn(arena, up.Shape()...)
			copy(seed.Data(), up.Data())
			out.Backward(seed)
			sameBits(t, name+" dx", a.Grad.Data(), gad)
			sameBits(t, name+" dgain", g.Grad.Data(), ggd)
			sameBits(t, name+" dshift", sh.Grad.Data(), gsd)
		}
	}
}

func TestReLUMatchesApply(t *testing.T) {
	rng := stats.NewRNG(53)
	x := tensor.Randn(rng, 1, 4, 3, 5, 5)
	xd := signedZeros(x.Data())
	xd[2], xd[11] = math.NaN(), math.Inf(-1)
	want := x.Apply(func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	}).Data()
	if math.Float64bits(want[2]) != 0 {
		t.Fatalf("reference maps NaN to %v, want +0", want[2])
	}
	sameBits(t, "ReLU", ReLU(Constant(x)).Data.Data(), want)
}

// reluBranching is ReLU's forward and backward as branching loops over
// zeroed outputs: only a positive input writes.
func reluBranching(ad, nd []float64) (od, gd []float64) {
	od = make([]float64, len(ad))
	gd = make([]float64, len(ad))
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		}
	}
	for i := range ad {
		if ad[i] > 0 {
			gd[i] = nd[i]
		}
	}
	return od, gd
}

// specialFloats are the inputs where a select on the float's bits could
// go wrong: both zeros, both infinities, the extreme subnormals and
// normals, and NaNs of both signs with different payloads.
func specialFloats() []float64 {
	nan := func(b uint64) float64 { return math.Float64frombits(b) }
	return []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		nan(0x000fffffffffffff), nan(0x800fffffffffffff), // largest subnormals
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022,
		math.NaN(), nan(0x7ff0000000000001), nan(0x7fffffffffffffff),
		nan(0xfff8000000000000), nan(0xfff0000000000001), nan(0xffffffffffffffff),
		1, -1,
	}
}

// nanArena returns an arena whose first n floats were last filled with
// NaN, so an output that relied on memory it did not write would show
// it.
func nanArena(n int) *tensor.Arena {
	a := tensor.NewArena()
	junk := a.New(n).Data()
	for i := range junk {
		junk[i] = math.NaN()
	}
	a.Reset()
	return a
}

// TestReLUMatchesBranching: the branch-free ReLU equals the branching
// loops on every special value, forward and backward, with upstream
// gradients that are themselves special, on the heap and in an arena
// filled with NaN.
func TestReLUMatchesBranching(t *testing.T) {
	sp := specialFloats()
	x := tensor.Randn(stats.NewRNG(53), 1, 4, 3, 10, 10)
	xd := signedZeros(x.Data())
	up := tensor.Randn(stats.NewRNG(59), 1, x.Shape()...)
	ud := up.Data()
	// Every special input meets every special gradient.
	for i := range sp {
		for j := range sp {
			k := i*len(sp) + j
			xd[k], ud[k] = sp[i], sp[j]
		}
	}
	wantOut, wantGrad := reluBranching(xd, ud)
	for _, arena := range []*tensor.Arena{nil, nanArena(4 * len(xd))} {
		a := NewLeaf(tensor.NewIn(arena, x.Shape()...), true)
		copy(a.Data.Data(), xd)
		out := ReLU(a)
		sameBits(t, fmt.Sprintf("forward arena=%v", arena != nil), out.Data.Data(), wantOut)
		seed := tensor.NewIn(arena, up.Shape()...)
		copy(seed.Data(), ud)
		out.Backward(seed)
		sameBits(t, fmt.Sprintf("backward arena=%v", arena != nil), a.Grad.Data(), wantGrad)
	}
}

// TestTakeAccumulatesLikeClone: an input feeding two consumers through an
// op whose backward hands its freshly built gradient over with take must
// end with the sum of the two consumers' gradients, each computed in a
// graph of its own, exactly as cloning the first gradient gave. Each
// consumer weights the op's output differently, so the two gradients
// differ.
func TestTakeAccumulatesLikeClone(t *testing.T) {
	rng := stats.NewRNG(83)
	opts := tensor.Conv2DOpts{Stride: 1, Padding: 1}
	w := NewLeaf(tensor.Randn(rng, 1, 5, 3), true)
	gain, shift := tensor.Randn(rng, 1, 5), tensor.Randn(rng, 1, 5)
	kern, bias := tensor.Randn(rng, 1, 2, 3, 3, 3), tensor.Randn(rng, 1, 2)
	k1 := tensor.Randn(rng, 1, 2, 3, 2)
	mat := tensor.Randn(rng, 1, 4, 5)
	for _, tc := range []struct {
		name  string
		shape []int
		op    func(x *Value) *Value
	}{
		{"Mul", []int{4, 5}, func(x *Value) *Value { return Mul(x, Constant(mat)) }},
		{"MatMul.a", []int{4, 5}, func(x *Value) *Value { return MatMul(x, Constant(w.Data)) }},
		{"MatMul.b", []int{5, 3}, func(x *Value) *Value { return MatMul(Constant(mat), x) }},
		{"Transpose2D", []int{4, 5}, Transpose2D},
		{"AddRow.row", []int{5}, func(x *Value) *Value { return AddRow(Constant(mat), x) }},
		{"ReLU", []int{4, 5}, ReLU},
		{"Tanh", []int{4, 5}, Tanh},
		{"Sigmoid", []int{4, 5}, Sigmoid},
		{"GELU", []int{4, 5}, GELU},
		{"Exp", []int{4, 5}, Exp},
		{"Sum", []int{4, 5}, Sum},
		{"Mean", []int{4, 5}, Mean},
		{"Softmax", []int{4, 5}, Softmax},
		{"SoftmaxCrossEntropy", []int{4, 5}, func(x *Value) *Value { return SoftmaxCrossEntropy(x, []int{0, 4, 2, 1}) }},
		{"LayerNorm", []int{4, 5}, func(x *Value) *Value { return LayerNorm(x, Constant(gain), Constant(shift), 1e-5) }},
		{"LayerNorm.gain", []int{5}, func(x *Value) *Value { return LayerNorm(Constant(mat), x, Constant(shift), 1e-5) }},
		{"Conv2D.input", []int{2, 3, 5, 5}, func(x *Value) *Value { return Conv2D(x, Constant(kern), Constant(bias), opts) }},
		{"Conv2D.kernel", []int{2, 3, 3, 3}, func(x *Value) *Value {
			return Conv2D(Constant(tensor.Randn(stats.NewRNG(3), 1, 2, 3, 5, 5)), x, Constant(bias), opts)
		}},
		{"Conv2D.bias", []int{2}, func(x *Value) *Value {
			return Conv2D(Constant(tensor.Randn(stats.NewRNG(3), 1, 2, 3, 5, 5)), Constant(kern), x, opts)
		}},
		{"BatchNorm2D", []int{2, 3, 4, 4}, func(x *Value) *Value {
			return BatchNorm2D(x, Constant(tensor.Full(1.5, 3)), Constant(tensor.Full(0.5, 3)), 1e-5)
		}},
		{"MaxPool2D", []int{2, 3, 4, 4}, func(x *Value) *Value { return MaxPool2D(x, 2, 2) }},
		{"AvgPoolGlobal", []int{2, 3, 4, 4}, AvgPoolGlobal},
		{"EmbeddingLookup", []int{6, 5}, func(x *Value) *Value { return EmbeddingLookup(x, []int{1, 4, 1, 0}) }},
		{"Conv1D", []int{2, 3, 6}, func(x *Value) *Value { return Conv1D(x, Constant(k1), nil, 2) }},
	} {
		xt := tensor.Randn(stats.NewRNG(89), 1, tc.shape...)
		weights := func(seed uint64, out *Value) *Value {
			return Sum(Mul(out, Constant(tensor.Randn(stats.NewRNG(seed), 1, out.Data.Shape()...))))
		}
		alone := func(seed uint64) *tensor.Tensor {
			x := NewLeaf(xt.Clone(), true)
			weights(seed, tc.op(x)).Backward(nil)
			return x.Grad
		}
		want := alone(1).Add(alone(2))

		x := NewLeaf(xt.Clone(), true)
		Add(weights(1, tc.op(x)), weights(2, tc.op(x))).Backward(nil)
		sameBits(t, tc.name, x.Grad.Data(), want.Data())
	}
}
