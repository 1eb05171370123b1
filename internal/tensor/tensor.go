// Package tensor implements the dense numerical arrays underneath the
// deep-learning stack: row-major float64 tensors with elementwise
// arithmetic, parallel blocked matrix multiplication, 2-D convolution via
// im2col, pooling, and axis reductions.
//
// Tensors are contiguous and row-major. Shapes are immutable after
// creation; Reshape returns a view sharing the backing slice. float64 is
// used throughout so that finite-difference gradient checks in the autograd
// package are accurate; the mixed-precision behaviour Summit exploits is
// modelled separately (see internal/ddl and internal/perf).
package tensor

import (
	"fmt"
	"math"

	"summitscale/internal/stats"
)

// Tensor is a dense row-major array of float64. A tensor optionally
// belongs to an Arena; operations allocate their results from the
// receiver's arena so step-scoped temporaries inherit step-scoped storage.
type Tensor struct {
	shape []int
	data  []float64
	arena *Arena
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape. It
// panics if the element count does not match.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn fills a new tensor with N(0, sd) variates drawn from rng.
func Randn(rng *stats.RNG, sd float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * sd
	}
	return t
}

// Uniform fills a new tensor with uniform variates in [lo, hi).
func Uniform(rng *stats.RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// checkShape must not pass shape itself to fmt: like offset, doing so
// makes every variadic shape argument escape, costing one heap allocation
// per tensor-producing call even when the tensor itself is arena-backed.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape", d))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Size returns the total element count.
func (t *Tensor) Size() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Data returns the backing slice. Mutations are visible to all views.
func (t *Tensor) Data() []float64 { return t.data }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// offset must not pass idx itself to fmt: doing so makes the index slice
// escape, which puts one heap allocation on every variadic At/Set call in
// the training hot loops. Only scalars and the (already heap) shape may
// reach the panic messages.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: rank-%d index for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dimension %d of shape %v", x, i, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy (in t's arena, when it has one).
func (t *Tensor) Clone() *Tensor {
	c := NewRawIn(t.arena, t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape sharing t's data. The total
// element count must be unchanged.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return t.ReshapeIn(t.arena, shape...)
}

// ReshapeIn is Reshape placing the view's bookkeeping (struct and shape
// copy) in arena a instead of t's own arena. Backward passes use it to view
// heap-resident parameters without per-step heap allocation; the view dies
// with the arena while the parameter data lives on.
func (t *Tensor) ReshapeIn(a *Arena, shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to rank-%d shape of %d elements", t.shape, len(shape), n))
	}
	return viewIn(a, shape, t.data)
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustMatch(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// Add returns t + u elementwise.
func (t *Tensor) Add(u *Tensor) *Tensor {
	t.mustMatch(u, "Add")
	r := NewRawIn(t.arena, t.shape...)
	for i := range t.data {
		r.data[i] = t.data[i] + u.data[i]
	}
	return r
}

// Sub returns t - u elementwise.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	t.mustMatch(u, "Sub")
	r := NewRawIn(t.arena, t.shape...)
	for i := range t.data {
		r.data[i] = t.data[i] - u.data[i]
	}
	return r
}

// Mul returns t * u elementwise (Hadamard product).
func (t *Tensor) Mul(u *Tensor) *Tensor {
	t.mustMatch(u, "Mul")
	r := NewRawIn(t.arena, t.shape...)
	for i := range t.data {
		r.data[i] = t.data[i] * u.data[i]
	}
	return r
}

// AddInPlace accumulates u into t and returns t.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	t.mustMatch(u, "AddInPlace")
	for i := range t.data {
		t.data[i] += u.data[i]
	}
	return t
}

// AddScaledInPlace accumulates s*u into t and returns t — the fused axpy
// kernel of the optimizer and gradient-accumulation hot paths, which would
// otherwise materialize u.Scale(s) per call.
func (t *Tensor) AddScaledInPlace(u *Tensor, s float64) *Tensor {
	t.mustMatch(u, "AddScaledInPlace")
	for i := range t.data {
		t.data[i] += s * u.data[i]
	}
	return t
}

// Scale returns t * s elementwise.
func (t *Tensor) Scale(s float64) *Tensor {
	r := NewRawIn(t.arena, t.shape...)
	for i := range t.data {
		r.data[i] = t.data[i] * s
	}
	return r
}

// ScaleInPlace multiplies t by s in place and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// Apply returns f applied elementwise.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	r := NewRawIn(t.arena, t.shape...)
	for i := range t.data {
		r.data[i] = f(t.data[i])
	}
	return r
}

// AddRow adds the length-C row vector to every row of the (N, C) matrix t.
// It is the broadcast used for bias addition.
func (t *Tensor) AddRow(row *Tensor) *Tensor {
	if t.Rank() != 2 || row.Rank() != 1 || row.shape[0] != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRow shapes %v, %v", t.shape, row.shape))
	}
	r := NewRawIn(t.arena, t.shape...)
	n, c := t.shape[0], t.shape[1]
	for i := 0; i < n; i++ {
		base := i * c
		for j := 0; j < c; j++ {
			r.data[base+j] = t.data[base+j] + row.data[j]
		}
	}
	return r
}

// Norm returns the Euclidean (L2) norm of all elements.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, x := range t.data {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, x := range t.data {
		s += x
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, x := range t.data {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Equal reports elementwise equality within tol.
func (t *Tensor) Equal(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-u.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a shape summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[n=%d, norm=%.4g]", t.shape, len(t.data), t.Norm())
}
