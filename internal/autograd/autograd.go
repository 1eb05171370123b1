// Package autograd implements tape-free reverse-mode automatic
// differentiation over internal/tensor values. Each operation records its
// parents and a backward closure; Backward runs the closures in reverse
// topological order.
//
// This is the differentiation engine beneath internal/nn. It supports the
// operations needed by the model zoo: dense algebra, convolution, pooling,
// pointwise nonlinearities, normalization statistics, and the fused
// softmax-cross-entropy loss.
package autograd

import (
	"fmt"
	"math"
	"sync/atomic"

	"summitscale/internal/tensor"
)

// Value is a node in the computation graph: a tensor plus (optionally) its
// gradient and the recipe to propagate gradients to its parents.
type Value struct {
	Data *tensor.Tensor
	Grad *tensor.Tensor

	requiresGrad bool
	parents      []*Value
	backward     func()
	// visited holds the id of the last Backward traversal that saw this
	// node, replacing a per-call visited map (one heap map per step) with
	// a field write. Ids come from a process-wide atomic counter, so
	// concurrent Backward calls over disjoint graphs stay correct; as with
	// gradient accumulation, a graph belongs to one goroutine at a time.
	visited uint64
}

// NewLeaf wraps t as a graph leaf. If requiresGrad is true, Backward will
// accumulate into v.Grad.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{Data: t, requiresGrad: requiresGrad}
}

// Constant wraps t as a non-differentiable leaf.
func Constant(t *tensor.Tensor) *Value { return NewLeaf(t, false) }

// ConstantIn is Constant bootstrapping arena allocation: when a is non-nil
// the leaf holds a copy of t in the arena, and because tensor operations
// inherit their receiver's arena, every downstream node of the graph — and
// every backward temporary derived from it — is arena-allocated too. A nil
// arena wraps t directly, exactly like Constant.
func ConstantIn(a *tensor.Arena, t *tensor.Tensor) *Value {
	if a == nil {
		return Constant(t)
	}
	c := tensor.NewIn(a, t.Shape()...)
	copy(c.Data(), t.Data())
	return NewLeaf(c, false)
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() { v.Grad = nil }

func newNode(data *tensor.Tensor, parents ...*Value) *Value {
	n := &Value{Data: data, parents: parents}
	for _, p := range parents {
		if p.requiresGrad {
			n.requiresGrad = true
			break
		}
	}
	return n
}

// accum adds g into v.Grad, allocating on first use. Gradient accumulation
// (rather than assignment) is what makes shared parameters work.
func (v *Value) accum(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = g.Clone()
		return
	}
	v.Grad.AddInPlace(g)
}

// take is accum for a gradient the caller built for v alone: on first use
// v adopts g instead of cloning it, and after that g is added in place
// exactly as accum adds it. g must not be read or written by anything
// else afterwards, so backward closures that hand on n.Grad itself (or a
// view of it) use accum.
func (v *Value) take(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = g
		return
	}
	v.Grad.AddInPlace(g)
}

// accumScaled adds s*g into v.Grad without materializing the scaled tensor
// — the fused form the backward hot paths use instead of accum(g.Scale(s)).
func (v *Value) accumScaled(g *tensor.Tensor, s float64) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = g.Scale(s)
		return
	}
	v.Grad.AddScaledInPlace(g, s)
}

// Backward seeds v's gradient with ones (or seed if non-nil) and propagates
// through the graph in reverse topological order.
func (v *Value) Backward(seed *tensor.Tensor) {
	if seed == nil {
		seed = tensor.FullIn(v.Data.Arena(), 1, v.Data.Shape()...)
	}
	if !v.Data.SameShape(seed) {
		panic(fmt.Sprintf("autograd: seed shape %v vs value %v", seed.Shape(), v.Data.Shape()))
	}
	order := topoSort(v)
	v.Grad = seed.Clone()
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil && n.Grad != nil {
			n.backward()
		}
	}
}

var backwardEpoch atomic.Uint64

func topoSort(root *Value) []*Value {
	epoch := backwardEpoch.Add(1)
	order := make([]*Value, 0, 32)
	var visit func(*Value)
	visit = func(n *Value) {
		if n.visited == epoch || !n.requiresGrad {
			return
		}
		n.visited = epoch
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}

// Add returns a + b.
func Add(a, b *Value) *Value {
	n := newNode(a.Data.Add(b.Data), a, b)
	n.backward = func() {
		a.accum(n.Grad)
		b.accum(n.Grad)
	}
	return n
}

// Sub returns a - b.
func Sub(a, b *Value) *Value {
	n := newNode(a.Data.Sub(b.Data), a, b)
	n.backward = func() {
		a.accum(n.Grad)
		b.accumScaled(n.Grad, -1)
	}
	return n
}

// Mul returns the elementwise product a * b.
func Mul(a, b *Value) *Value {
	n := newNode(a.Data.Mul(b.Data), a, b)
	n.backward = func() {
		a.take(n.Grad.Mul(b.Data))
		b.take(n.Grad.Mul(a.Data))
	}
	return n
}

// Scale returns a * s for scalar s.
func Scale(a *Value, s float64) *Value {
	n := newNode(a.Data.Scale(s), a)
	n.backward = func() { a.accumScaled(n.Grad, s) }
	return n
}

// MatMul returns the matrix product of (M,K) a and (K,N) b.
func MatMul(a, b *Value) *Value {
	n := newNode(a.Data.MatMul(b.Data), a, b)
	n.backward = func() {
		// Each operand's gradient is built only if it flows somewhere: a
		// model's first layer multiplies a constant batch, whose dX
		// would be discarded. The transpose of the (possibly
		// heap-resident) b and the product aᵀ·dY go to the gradient's
		// arena so parameter matrices don't force per-step heap
		// temporaries; aᵀ is never materialized.
		if a.requiresGrad {
			a.take(n.Grad.MatMul(b.Data.Transpose2DIn(n.Grad.Arena())))
		}
		if b.requiresGrad {
			b.take(a.Data.MatMulTAIn(n.Grad.Arena(), n.Grad))
		}
	}
	return n
}

// Transpose2D returns the transpose of a rank-2 value.
func Transpose2D(a *Value) *Value {
	n := newNode(a.Data.Transpose2D(), a)
	n.backward = func() { a.take(n.Grad.Transpose2D()) }
	return n
}

// AddRow broadcasts the rank-1 bias row over every row of the rank-2 a.
func AddRow(a, row *Value) *Value {
	n := newNode(a.Data.AddRow(row.Data), a, row)
	n.backward = func() {
		a.accum(n.Grad)
		row.take(n.Grad.SumAxis0())
	}
	return n
}

// Reshape returns a view of a with a new shape.
func Reshape(a *Value, shape ...int) *Value {
	orig := a.Data.Shape()
	n := newNode(a.Data.Reshape(shape...), a)
	n.backward = func() { a.accum(n.Grad.Reshape(orig...)) }
	return n
}

// ReLU applies max(0, x) elementwise; NaN and -0 map to +0.
func ReLU(a *Value) *Value {
	ad := a.Data.Data()
	out := tensor.NewIn(a.Data.Arena(), a.Data.Shape()...)
	od := out.Data()[:len(ad)]
	// out is zeroed, so only positive inputs are written.
	for i, x := range ad {
		if x > 0 {
			od[i] = x
		}
	}
	n := newNode(out, a)
	n.backward = func() {
		g := tensor.NewIn(n.Grad.Arena(), a.Data.Shape()...)
		ad, gd, nd := a.Data.Data(), g.Data(), n.Grad.Data()
		for i := range ad {
			if ad[i] > 0 {
				gd[i] = nd[i]
			}
		}
		a.take(g)
	}
	return n
}

// Tanh applies tanh elementwise.
func Tanh(a *Value) *Value {
	out := a.Data.Apply(math.Tanh)
	n := newNode(out, a)
	n.backward = func() {
		g := tensor.NewIn(n.Grad.Arena(), a.Data.Shape()...)
		od, gd, nd := out.Data(), g.Data(), n.Grad.Data()
		for i := range od {
			gd[i] = nd[i] * (1 - od[i]*od[i])
		}
		a.take(g)
	}
	return n
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Value) *Value {
	out := a.Data.Apply(func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
	n := newNode(out, a)
	n.backward = func() {
		g := tensor.NewIn(n.Grad.Arena(), a.Data.Shape()...)
		od, gd, nd := out.Data(), g.Data(), n.Grad.Data()
		for i := range od {
			gd[i] = nd[i] * od[i] * (1 - od[i])
		}
		a.take(g)
	}
	return n
}

// GELU applies the Gaussian error linear unit (tanh approximation), the
// activation used by BERT-style transformers.
func GELU(a *Value) *Value {
	const c = 0.7978845608028654 // sqrt(2/pi)
	f := func(x float64) float64 {
		return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
	out := a.Data.Apply(f)
	n := newNode(out, a)
	n.backward = func() {
		g := tensor.NewIn(n.Grad.Arena(), a.Data.Shape()...)
		ad, gd, nd := a.Data.Data(), g.Data(), n.Grad.Data()
		for i := range ad {
			x := ad[i]
			t := math.Tanh(c * (x + 0.044715*x*x*x))
			dt := (1 - t*t) * c * (1 + 3*0.044715*x*x)
			gd[i] = nd[i] * (0.5*(1+t) + 0.5*x*dt)
		}
		a.take(g)
	}
	return n
}

// Exp applies exp elementwise.
func Exp(a *Value) *Value {
	out := a.Data.Apply(math.Exp)
	n := newNode(out, a)
	n.backward = func() { a.take(n.Grad.Mul(out)) }
	return n
}

// Square returns x*x elementwise.
func Square(a *Value) *Value {
	n := newNode(a.Data.Mul(a.Data), a)
	n.backward = func() { a.accumScaled(n.Grad.Mul(a.Data), 2) }
	return n
}

// Sum reduces all elements of a to a scalar (shape [1]).
func Sum(a *Value) *Value {
	n := newNode(tensor.FromSlice([]float64{a.Data.Sum()}, 1), a)
	n.backward = func() {
		a.take(tensor.FullIn(n.Grad.Arena(), n.Grad.At(0), a.Data.Shape()...))
	}
	return n
}

// Mean reduces all elements of a to their mean (shape [1]).
func Mean(a *Value) *Value {
	size := float64(a.Data.Size())
	n := newNode(tensor.FromSlice([]float64{a.Data.Sum() / size}, 1), a)
	n.backward = func() {
		a.take(tensor.FullIn(n.Grad.Arena(), n.Grad.At(0)/size, a.Data.Shape()...))
	}
	return n
}

// Conv2D convolves NCHW input a with FCHW kernel and optional bias. The
// node keeps the forward's unfold of a, step-scoped in a's arena, and its
// backward builds the kernel gradient from it instead of unfolding again.
// A layer applied twice in one graph makes two nodes with one unfold each,
// so each application's dK is taken against the input it saw.
func Conv2D(a, kernel, bias *Value, opts tensor.Conv2DOpts) *Value {
	var bt *tensor.Tensor
	if bias != nil {
		bt = bias.Data
	}
	out, cols := tensor.Conv2D(a.Data, kernel.Data, bt, opts)
	var n *Value
	if bias != nil {
		n = newNode(out, a, kernel, bias)
	} else {
		n = newNode(out, a, kernel)
	}
	n.backward = func() {
		nIn, c, h, w := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2), a.Data.Dim(3)
		f, kh, kw := kernel.Data.Dim(0), kernel.Data.Dim(2), kernel.Data.Dim(3)
		plane := out.Dim(2) * out.Dim(3)
		rows := nIn * plane // unfold rows, (image, oy, ox) order
		ar, gd := n.Grad.Arena(), n.Grad.Data()

		// As in MatMul, only gradients that flow somewhere are built: a
		// first conv layer's constant input needs no dcols or fold.
		if kernel.requiresGrad {
			// dKernel = dOutᵀ·cols, shape (F, C*KH*KW). Row ch of the
			// (F, N*OH*OW) dOutᵀ is channel ch's planes, image by image.
			dt := tensor.NewIn(ar, f, rows)
			td := dt.Data()
			for img := 0; img < nIn; img++ {
				for ch := 0; ch < f; ch++ {
					copy(td[ch*rows+img*plane:][:plane], gd[(img*f+ch)*plane:][:plane])
				}
			}
			kernel.take(dt.MatMul(cols).Reshape(f, c, kh, kw))
		}
		if bias != nil && bias.requiresGrad {
			// Each channel sums in unfold-row order, as SumAxis0 over dOut
			// laid out (N*OH*OW, F) would.
			db := tensor.NewIn(ar, f)
			dbd := db.Data()
			for ch := 0; ch < f; ch++ {
				var sum float64
				for img := 0; img < nIn; img++ {
					for _, v := range gd[(img*f+ch)*plane:][:plane] {
						sum += v
					}
				}
				dbd[ch] = sum
			}
			bias.take(db)
		}
		if a.requiresGrad {
			// dInput = Col2Im(dflat @ kernelMat), with dOut laid out
			// (N*OH*OW, F) like the unfold rows and kernelMat
			// (F, C*KH*KW).
			dflat := tensor.NewIn(ar, rows, f)
			dd := dflat.Data()
			for img := 0; img < nIn; img++ {
				for ch := 0; ch < f; ch++ {
					dst := dd[img*plane*f+ch:]
					for i, v := range gd[(img*f+ch)*plane:][:plane] {
						dst[i*f] = v
					}
				}
			}
			kmat := kernel.Data.ReshapeIn(ar, f, c*kh*kw)
			a.take(tensor.Col2Im(dflat.MatMul(kmat), nIn, c, h, w, kh, kw, opts))
		}
	}
	return n
}

// MaxPool2D applies k×k max pooling with the given stride.
func MaxPool2D(a *Value, k, stride int) *Value {
	out, arg := tensor.MaxPool2D(a.Data, k, stride)
	n := newNode(out, a)
	n.backward = func() {
		g := tensor.NewIn(n.Grad.Arena(), a.Data.Shape()...)
		gd, nd := g.Data(), n.Grad.Data()
		for i, src := range arg {
			gd[src] += nd[i]
		}
		a.take(g)
	}
	return n
}

// AvgPoolGlobal averages each channel's spatial extent: (N,C,H,W) -> (N,C).
func AvgPoolGlobal(a *Value) *Value {
	out := tensor.AvgPool2DGlobal(a.Data)
	n := newNode(out, a)
	n.backward = func() {
		nIn, c, h, w := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2), a.Data.Dim(3)
		inv := 1 / float64(h*w)
		g := tensor.NewIn(n.Grad.Arena(), a.Data.Shape()...)
		gd, nd := g.Data(), n.Grad.Data()
		for img := 0; img < nIn; img++ {
			for ch := 0; ch < c; ch++ {
				v := nd[img*c+ch] * inv
				base := (img*c + ch) * h * w
				for i := 0; i < h*w; i++ {
					gd[base+i] = v
				}
			}
		}
		a.take(g)
	}
	return n
}

// SoftmaxCrossEntropy computes the mean cross-entropy between row-wise
// logits (N, C) and integer class labels, fused with softmax for stability.
// The returned Value is a scalar (shape [1]).
func SoftmaxCrossEntropy(logits *Value, labels []int) *Value {
	nRows := logits.Data.Dim(0)
	if len(labels) != nRows {
		panic(fmt.Sprintf("autograd: %d labels for %d rows", len(labels), nRows))
	}
	probs := logits.Data.SoftmaxRows()
	nCols := probs.Dim(1)
	pd := probs.Data()
	var loss float64
	for i, lab := range labels {
		p := pd[i*nCols+lab]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	loss /= float64(nRows)
	lt := tensor.NewIn(logits.Data.Arena(), 1)
	lt.Data()[0] = loss
	n := newNode(lt, logits)
	n.backward = func() {
		scale := n.Grad.At(0) / float64(nRows)
		g := probs.Clone()
		gdata := g.Data()
		for i, lab := range labels {
			gdata[i*nCols+lab] -= 1
		}
		logits.take(g.ScaleInPlace(scale))
	}
	return n
}

// MSE computes the mean squared error between pred and target (a constant).
func MSE(pred *Value, target *tensor.Tensor) *Value {
	diff := pred.Data.Sub(target)
	size := float64(diff.Size())
	n := newNode(tensor.FromSlice([]float64{diff.Mul(diff).Sum() / size}, 1), pred)
	n.backward = func() {
		pred.accumScaled(diff, 2*n.Grad.At(0)/size)
	}
	return n
}

// Softmax applies row-wise softmax with gradient support.
func Softmax(a *Value) *Value {
	out := a.Data.SoftmaxRows()
	n := newNode(out, a)
	n.backward = func() {
		m, c := out.Dim(0), out.Dim(1)
		g := tensor.NewIn(n.Grad.Arena(), m, c)
		od, gd, nd := out.Data(), g.Data(), n.Grad.Data()
		for i := 0; i < m; i++ {
			row := od[i*c : (i+1)*c]
			grow := nd[i*c : (i+1)*c]
			var dot float64
			for j := range row {
				dot += row[j] * grow[j]
			}
			for j := range row {
				gd[i*c+j] = row[j] * (grow[j] - dot)
			}
		}
		a.take(g)
	}
	return n
}

// Concat2DRows stacks rank-2 values vertically with gradient routing.
func Concat2DRows(vals ...*Value) *Value {
	ts := make([]*tensor.Tensor, len(vals))
	parents := make([]*Value, len(vals))
	for i, v := range vals {
		ts[i] = v.Data
		parents[i] = v
	}
	out := tensor.Concat2DRows(ts...)
	n := newNode(out, parents...)
	n.backward = func() {
		off := 0
		for _, v := range vals {
			rows := v.Data.Dim(0)
			v.accum(n.Grad.Slice2DRows(off, off+rows))
			off += rows
		}
	}
	return n
}
