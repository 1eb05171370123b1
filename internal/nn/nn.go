// Package nn provides neural-network layers and model builders on top of
// internal/autograd: dense, convolutional, normalization, embedding and
// attention layers, plus the small trainable instances of the architectures
// the paper's scale-out studies use (MLP, CNN, residual CNN, transformer
// encoder, variational and plain autoencoders).
package nn

import (
	"fmt"
	"math"

	"summitscale/internal/autograd"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// Param is a named trainable parameter.
type Param struct {
	Name  string
	Value *autograd.Value
}

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the module's parameters in a stable order.
	Params() []Param
}

// Layer is a module that maps one value to another.
type Layer interface {
	Module
	Forward(x *autograd.Value) *autograd.Value
}

// ParamCount sums the element counts of a module's parameters.
func ParamCount(m Module) int {
	var n int
	for _, p := range m.Params() {
		n += p.Value.Data.Size()
	}
	return n
}

// ZeroGrads clears all parameter gradients of m.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.Value.ZeroGrad()
	}
}

// XavierSD returns the Glorot-uniform-equivalent normal standard deviation
// for a layer with the given fan-in and fan-out.
func XavierSD(fanIn, fanOut int) float64 {
	return math.Sqrt(2 / float64(fanIn+fanOut))
}

// HeSD returns the He initialization standard deviation for ReLU layers.
func HeSD(fanIn int) float64 { return math.Sqrt(2 / float64(fanIn)) }

// Dense is a fully connected layer y = x W + b with optional activation.
type Dense struct {
	W, B *autograd.Value
	Act  func(*autograd.Value) *autograd.Value // nil means identity
	name string
}

// NewDense creates a dense layer with Xavier-scaled weights.
func NewDense(rng *stats.RNG, in, out int, act func(*autograd.Value) *autograd.Value, name string) *Dense {
	return &Dense{
		W:    autograd.NewLeaf(tensor.Randn(rng, XavierSD(in, out), in, out), true),
		B:    autograd.NewLeaf(tensor.New(out), true),
		Act:  act,
		name: name,
	}
}

// Forward applies the affine map and activation.
func (d *Dense) Forward(x *autograd.Value) *autograd.Value {
	y := autograd.AddRow(autograd.MatMul(x, d.W), d.B)
	if d.Act != nil {
		y = d.Act(y)
	}
	return y
}

// Params returns W and b.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: d.name + ".w", Value: d.W},
		{Name: d.name + ".b", Value: d.B},
	}
}

// Conv2D is a convolutional layer over NCHW tensors.
type Conv2D struct {
	Kernel, Bias *autograd.Value
	Opts         tensor.Conv2DOpts
	name         string
}

// NewConv2D creates a conv layer with He-scaled kernels.
func NewConv2D(rng *stats.RNG, inCh, outCh, k int, opts tensor.Conv2DOpts, name string) *Conv2D {
	sd := HeSD(inCh * k * k)
	return &Conv2D{
		Kernel: autograd.NewLeaf(tensor.Randn(rng, sd, outCh, inCh, k, k), true),
		Bias:   autograd.NewLeaf(tensor.New(outCh), true),
		Opts:   opts,
		name:   name,
	}
}

// Forward convolves x.
func (c *Conv2D) Forward(x *autograd.Value) *autograd.Value {
	return autograd.Conv2D(x, c.Kernel, c.Bias, c.Opts)
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []Param {
	return []Param{
		{Name: c.name + ".kernel", Value: c.Kernel},
		{Name: c.name + ".bias", Value: c.Bias},
	}
}

// LayerNorm is a learned row-wise normalization layer.
type LayerNorm struct {
	Gain, Shift *autograd.Value
	Eps         float64
	name        string
}

// NewLayerNorm creates a layer norm over dim features.
func NewLayerNorm(dim int, name string) *LayerNorm {
	return &LayerNorm{
		Gain:  autograd.NewLeaf(tensor.Full(1, dim), true),
		Shift: autograd.NewLeaf(tensor.New(dim), true),
		Eps:   1e-5,
		name:  name,
	}
}

// Forward normalizes x.
func (l *LayerNorm) Forward(x *autograd.Value) *autograd.Value {
	return autograd.LayerNorm(x, l.Gain, l.Shift, l.Eps)
}

// Params returns gain and shift.
func (l *LayerNorm) Params() []Param {
	return []Param{
		{Name: l.name + ".gain", Value: l.Gain},
		{Name: l.name + ".shift", Value: l.Shift},
	}
}

// BatchNorm2D is a learned channel-wise normalization layer for NCHW input.
type BatchNorm2D struct {
	Gain, Shift *autograd.Value
	Eps         float64
	name        string
}

// NewBatchNorm2D creates a batch norm over ch channels.
func NewBatchNorm2D(ch int, name string) *BatchNorm2D {
	return &BatchNorm2D{
		Gain:  autograd.NewLeaf(tensor.Full(1, ch), true),
		Shift: autograd.NewLeaf(tensor.New(ch), true),
		Eps:   1e-5,
		name:  name,
	}
}

// Forward normalizes x with batch statistics.
func (b *BatchNorm2D) Forward(x *autograd.Value) *autograd.Value {
	return autograd.BatchNorm2D(x, b.Gain, b.Shift, b.Eps)
}

// Params returns gain and shift.
func (b *BatchNorm2D) Params() []Param {
	return []Param{
		{Name: b.name + ".gain", Value: b.Gain},
		{Name: b.name + ".shift", Value: b.Shift},
	}
}

// Embedding maps integer ids to learned dense vectors.
type Embedding struct {
	Table *autograd.Value
	name  string
}

// NewEmbedding creates a (vocab, dim) embedding table.
func NewEmbedding(rng *stats.RNG, vocab, dim int, name string) *Embedding {
	return &Embedding{
		Table: autograd.NewLeaf(tensor.Randn(rng, 0.02, vocab, dim), true),
		name:  name,
	}
}

// Lookup gathers rows for ids.
func (e *Embedding) Lookup(ids []int) *autograd.Value {
	return autograd.EmbeddingLookup(e.Table, ids)
}

// Params returns the table.
func (e *Embedding) Params() []Param {
	return []Param{{Name: e.name + ".table", Value: e.Table}}
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward applies each layer in order.
func (s *Sequential) Forward(x *autograd.Value) *autograd.Value {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Params concatenates the layers' parameters.
func (s *Sequential) Params() []Param {
	var ps []Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NewMLP builds a multilayer perceptron with the given layer widths
// (including input and output) and the activation on hidden layers.
func NewMLP(rng *stats.RNG, widths []int, act func(*autograd.Value) *autograd.Value) *Sequential {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	s := &Sequential{}
	for i := 0; i+1 < len(widths); i++ {
		a := act
		if i+2 == len(widths) {
			a = nil // no activation on the output layer
		}
		s.Layers = append(s.Layers,
			NewDense(rng, widths[i], widths[i+1], a, fmt.Sprintf("dense%d", i)))
	}
	return s
}
