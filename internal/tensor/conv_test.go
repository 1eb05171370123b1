package tensor

import (
	"testing"

	"summitscale/internal/stats"
)

// naiveConv2D is a direct reference implementation used to validate the
// im2col-based kernel.
func naiveConv2D(x, kernel, bias *Tensor, opts Conv2DOpts) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f, kh, kw := kernel.Dim(0), kernel.Dim(2), kernel.Dim(3)
	s, p := opts.Stride, opts.Padding
	oh := (h+2*p-kh)/s + 1
	ow := (w+2*p-kw)/s + 1
	out := New(n, f, oh, ow)
	for img := 0; img < n; img++ {
		for fo := 0; fo < f; fo++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy, ix := oy*s-p+ky, ox*s-p+kx
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									acc += x.At(img, ch, iy, ix) * kernel.At(fo, ch, ky, kx)
								}
							}
						}
					}
					if bias != nil {
						acc += bias.At(fo)
					}
					out.Set(acc, img, fo, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(1)
	cases := []struct {
		n, c, h, w, f, k, stride, pad int
	}{
		{1, 1, 5, 5, 1, 3, 1, 0},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 2, 7, 9, 3, 3, 2, 1},
		{2, 1, 6, 6, 2, 2, 2, 0},
		{1, 4, 5, 5, 8, 1, 1, 0}, // 1x1 conv
	}
	for _, c := range cases {
		x := Randn(rng, 1, c.n, c.c, c.h, c.w)
		kern := Randn(rng, 1, c.f, c.c, c.k, c.k)
		bias := Randn(rng, 1, c.f)
		opts := Conv2DOpts{Stride: c.stride, Padding: c.pad}
		got, _ := Conv2D(x, kern, bias, opts)
		want := naiveConv2D(x, kern, bias, opts)
		if !got.Equal(want, 1e-10) {
			t.Errorf("Conv2D mismatch for case %+v", c)
		}
	}
}

func TestConv2DNilBias(t *testing.T) {
	rng := stats.NewRNG(2)
	x := Randn(rng, 1, 1, 2, 4, 4)
	kern := Randn(rng, 1, 2, 2, 3, 3)
	opts := Conv2DOpts{Stride: 1, Padding: 1}
	got, _ := Conv2D(x, kern, nil, opts)
	want := naiveConv2D(x, kern, nil, opts)
	if !got.Equal(want, 1e-10) {
		t.Fatal("nil-bias conv mismatch")
	}
}

func TestConv2DOutputShape(t *testing.T) {
	x := New(2, 3, 32, 32)
	kern := New(16, 3, 3, 3)
	out, _ := Conv2D(x, kern, nil, Conv2DOpts{Stride: 2, Padding: 1})
	want := []int{2, 16, 16, 16}
	for i, d := range want {
		if out.Dim(i) != d {
			t.Fatalf("shape = %v, want %v", out.Shape(), want)
		}
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, the adjoint
// identity that makes the convolution backward pass correct.
func TestCol2ImAdjoint(t *testing.T) {
	rng := stats.NewRNG(3)
	n, c, h, w, kh, kw := 2, 3, 6, 5, 3, 2
	opts := Conv2DOpts{Stride: 2, Padding: 1}
	x := Randn(rng, 1, n, c, h, w)
	cols := Im2Col(x, kh, kw, opts)
	y := Randn(rng, 1, cols.Dim(0), cols.Dim(1))

	lhs := cols.Mul(y).Sum()
	back := Col2Im(y, n, c, h, w, kh, kw, opts)
	rhs := x.Mul(back).Sum()
	if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestMaxPool2D(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2D(x, 2, 2)
	want := FromSlice([]float64{4, 8, 12, 16}, 1, 1, 2, 2)
	if !out.Equal(want, 0) {
		t.Fatalf("MaxPool = %v", out)
	}
	// argmax indices must point at the maxima in the input data.
	for i, a := range arg {
		if x.Data()[a] != out.Data()[i] {
			t.Fatalf("arg[%d] = %d points at %v, want %v", i, a, x.Data()[a], out.Data()[i])
		}
	}
}

func TestAvgPool2DGlobal(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := AvgPool2DGlobal(x)
	if out.At(0, 0) != 2.5 || out.At(0, 1) != 25 {
		t.Fatalf("AvgPoolGlobal = %v", out)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := stats.NewRNG(1)
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
}

func BenchmarkConv2D(b *testing.B) {
	rng := stats.NewRNG(1)
	x := Randn(rng, 1, 4, 3, 32, 32)
	kern := Randn(rng, 1, 16, 3, 3, 3)
	bias := Randn(rng, 1, 16)
	opts := Conv2DOpts{Stride: 1, Padding: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(x, kern, bias, opts)
	}
}
