package tensor

import (
	"fmt"
	"math"
)

// SumAxis0 returns the column sums of a rank-2 tensor as a length-N vector.
func (t *Tensor) SumAxis0() *Tensor {
	if t.Rank() != 2 {
		panic("tensor: SumAxis0 of non-matrix")
	}
	m, n := t.shape[0], t.shape[1]
	r := newIn(t.arena, []int{n})
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, x := range row {
			r.data[j] += x
		}
	}
	return r
}

// SumAxis1 returns the row sums of a rank-2 tensor as a length-M vector.
func (t *Tensor) SumAxis1() *Tensor {
	if t.Rank() != 2 {
		panic("tensor: SumAxis1 of non-matrix")
	}
	m, n := t.shape[0], t.shape[1]
	r := NewRawIn(t.arena, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		var s float64
		for _, x := range row {
			s += x
		}
		r.data[i] = s
	}
	return r
}

// ArgMaxRows returns, for a rank-2 (M, N) tensor, the index of the maximum
// element in each row.
func (t *Tensor) ArgMaxRows() []int {
	if t.Rank() != 2 {
		panic("tensor: ArgMaxRows of non-matrix")
	}
	m, n := t.shape[0], t.shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		best := 0
		for j, x := range row {
			if x > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// SoftmaxRows returns the row-wise softmax of a rank-2 tensor, computed with
// the max-subtraction trick for numerical stability.
func (t *Tensor) SoftmaxRows() *Tensor {
	if t.Rank() != 2 {
		panic("tensor: SoftmaxRows of non-matrix")
	}
	m, n := t.shape[0], t.shape[1]
	r := NewRawIn(t.arena, m, n)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		out := r.data[i*n : (i+1)*n]
		mx := row[0]
		for _, x := range row[1:] {
			if x > mx {
				mx = x
			}
		}
		var sum float64
		for j, x := range row {
			e := math.Exp(x - mx)
			out[j] = e
			sum += e
		}
		for j := range out {
			out[j] /= sum
		}
	}
	return r
}

// MeanAxis0 returns the column means of a rank-2 tensor.
func (t *Tensor) MeanAxis0() *Tensor {
	r := t.SumAxis0()
	return r.ScaleInPlace(1 / float64(t.shape[0]))
}

// Slice2DRows returns rows [lo, hi) of a rank-2 tensor as a view.
func (t *Tensor) Slice2DRows(lo, hi int) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Slice2DRows of non-matrix")
	}
	if lo < 0 || hi > t.shape[0] || lo >= hi {
		panic(fmt.Sprintf("tensor: Slice2DRows [%d,%d) of %v", lo, hi, t.shape))
	}
	n := t.shape[1]
	return viewIn(t.arena, []int{hi - lo, n}, t.data[lo*n:hi*n])
}
