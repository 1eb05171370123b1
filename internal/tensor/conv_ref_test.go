package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"summitscale/internal/stats"
)

// The run-wise unfold and fold only move data, so they must equal the
// element-wise loops below bit for bit, signed zeros included.

// im2colRowsElementwise is the element-wise unfold: every tap of every
// output pixel tests its own bounds.
func im2colRowsElementwise(cols, x []float64, lo, hi, c, h, w, oh, ow, kh, kw, s, p int) {
	for r := lo; r < hi; r++ {
		img, oy := r/oh, r%oh
		for ox := 0; ox < ow; ox++ {
			row := cols[((img*oh+oy)*ow+ox)*c*kh*kw:]
			col := 0
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < kh; ky++ {
					iy := oy*s - p + ky
					for kx := 0; kx < kw; kx++ {
						ix := ox*s - p + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							row[col] = x[((img*c+ch)*h+iy)*w+ix]
						}
						col++
					}
				}
			}
		}
	}
}

// col2imImagesElementwise is the element-wise fold, accumulating in
// (oy, ox, ch, ky, kx) order.
func col2imImagesElementwise(x, cols []float64, lo, hi, c, h, w, oh, ow, kh, kw, s, p int) {
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols[((img*oh+oy)*ow+ox)*c*kh*kw:]
				col := 0
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*s - p + ky
						for kx := 0; kx < kw; kx++ {
							ix := ox*s - p + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								x[((img*c+ch)*h+iy)*w+ix] += row[col]
							}
							col++
						}
					}
				}
			}
		}
	}
}

// convGeom is one unfold geometry: a square kernel k over an (n, c, h, w)
// input.
type convGeom struct{ n, c, h, w, k, stride, pad int }

func (g convGeom) String() string {
	return fmt.Sprintf("n%d c%d %dx%d k%d s%d p%d", g.n, g.c, g.h, g.w, g.k, g.stride, g.pad)
}

// convGeometries crosses strides 1-3, paddings 0-2 and kernels 1, 2, 3
// and 5 over a 7x9 input with c, n > 1. Padding 2 under kernels 1 and 2
// leaves output rows and columns with no in-range tap. The last shape is
// above convParallelMinWork, so the unfold and the fold fan out.
func convGeometries() []convGeom {
	var gs []convGeom
	for _, k := range []int{1, 2, 3, 5} {
		for s := 1; s <= 3; s++ {
			for p := 0; p <= 2; p++ {
				gs = append(gs, convGeom{2, 3, 7, 9, k, s, p})
			}
		}
	}
	big := convGeom{4, 8, 16, 18, 3, 1, 1}
	if big.n*big.h*big.w*big.c*big.k*big.k < convParallelMinWork {
		panic("convGeometries: the fan-out shape is below convParallelMinWork")
	}
	return append(gs, big)
}

// withSignedZeros overwrites every fifth element of t with +0 and every
// seventh with -0.
func withSignedZeros(t *Tensor) *Tensor {
	for i := range t.data {
		switch {
		case i%7 == 3:
			t.data[i] = math.Copysign(0, -1)
		case i%5 == 1:
			t.data[i] = 0
		}
	}
	return t
}

// dirtyArena returns an arena whose slabs were last filled with NaN, so a
// result that relied on memory it did not write would show it.
func dirtyArena(floats int) *Arena {
	a := NewArena()
	junk := a.New(floats).data
	for i := range junk {
		junk[i] = math.NaN()
	}
	a.Reset()
	return a
}

func TestIm2ColMatchesElementwise(t *testing.T) {
	rng := stats.NewRNG(41)
	for _, g := range convGeometries() {
		x := withSignedZeros(Randn(rng, 1, g.n, g.c, g.h, g.w))
		oh := convOutDim(g.h, g.k, g.stride, g.pad)
		ow := convOutDim(g.w, g.k, g.stride, g.pad)
		want := make([]float64, g.n*oh*ow*g.c*g.k*g.k)
		im2colRowsElementwise(want, x.data, 0, g.n*oh, g.c, g.h, g.w, oh, ow, g.k, g.k, g.stride, g.pad)
		opts := Conv2DOpts{Stride: g.stride, Padding: g.pad}

		sameBits(t, g.String()+" heap", Im2Col(x, g.k, g.k, opts).data, want)

		a := dirtyArena(len(x.data) + len(want))
		xa := a.New(x.shape...)
		copy(xa.data, x.data)
		got := Im2Col(xa, g.k, g.k, opts)
		if got.Arena() != a {
			t.Fatalf("%v: the unfold of an arena input is not in its arena", g)
		}
		sameBits(t, g.String()+" arena", got.data, want)
	}
}

func TestCol2ImMatchesElementwise(t *testing.T) {
	rng := stats.NewRNG(43)
	for _, g := range convGeometries() {
		oh := convOutDim(g.h, g.k, g.stride, g.pad)
		ow := convOutDim(g.w, g.k, g.stride, g.pad)
		cols := withSignedZeros(Randn(rng, 1, g.n*oh*ow, g.c*g.k*g.k))
		want := make([]float64, g.n*g.c*g.h*g.w)
		col2imImagesElementwise(want, cols.data, 0, g.n, g.c, g.h, g.w, oh, ow, g.k, g.k, g.stride, g.pad)
		opts := Conv2DOpts{Stride: g.stride, Padding: g.pad}

		sameBits(t, g.String()+" heap", Col2Im(cols, g.n, g.c, g.h, g.w, g.k, g.k, opts).data, want)

		a := dirtyArena(len(cols.data) + len(want))
		ca := a.New(cols.shape...)
		copy(ca.data, cols.data)
		sameBits(t, g.String()+" arena", Col2Im(ca, g.n, g.c, g.h, g.w, g.k, g.k, opts).data, want)
	}
}

// TestConvRejectsBadGeometry: a stride below one or a negative padding
// panics with the entry point's own message, before convOutDim divides.
func TestConvRejectsBadGeometry(t *testing.T) {
	x := New(1, 1, 4, 4)
	kern := New(1, 1, 3, 3)
	cols := New(16, 9)
	ops := []struct {
		name string
		run  func(Conv2DOpts)
	}{
		{"Conv2D", func(o Conv2DOpts) { Conv2D(x, kern, nil, o) }},
		{"Im2Col", func(o Conv2DOpts) { Im2Col(x, 3, 3, o) }},
		{"Col2Im", func(o Conv2DOpts) { Col2Im(cols, 1, 1, 4, 4, 3, 3, o) }},
	}
	bad := []struct {
		opts Conv2DOpts
		msg  string
	}{
		{Conv2DOpts{Stride: 0, Padding: 1}, "stride must be positive"},
		{Conv2DOpts{Stride: -1, Padding: 1}, "stride must be positive"},
		{Conv2DOpts{Stride: 1, Padding: -1}, "padding must be non-negative"},
	}
	for _, op := range ops {
		for _, b := range bad {
			want := "tensor: " + op.name + " " + b.msg
			func() {
				defer func() {
					r := recover()
					if s, ok := r.(string); !ok || !strings.HasPrefix(s, want) {
						t.Errorf("%s(%+v) panicked with %v, want %q", op.name, b.opts, r, want)
					}
				}()
				op.run(b.opts)
			}()
		}
	}
}
