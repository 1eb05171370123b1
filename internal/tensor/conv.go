package tensor

import (
	"fmt"
	"math"

	"summitscale/internal/parallel"
)

// convParallelMinWork is the element count (unfold-matrix cells for
// Im2Col, folded contributions for Col2Im) above which the conv lowering
// fans out across the persistent worker pool. Below it the loops run
// inline with no dispatch — and, deliberately, no closure allocation, so
// the small convolutions of the training-step alloc benchmark stay at
// their committed floor.
const convParallelMinWork = 1 << 16

// convRowGrain is the (image, output-row) chunk size for the parallel
// Im2Col fill; the fill writes disjoint rows, so output does not depend
// on it.
const convRowGrain = 4

// Conv2DOpts describes a 2-D convolution. Tensors are NCHW.
type Conv2DOpts struct {
	Stride  int
	Padding int
}

// check panics unless the geometry can be lowered: a stride of at least
// one and no negative padding. Every conv entry point runs it before
// convOutDim divides by the stride.
func (o Conv2DOpts) check(op string) {
	if o.Stride < 1 {
		panic("tensor: " + op + " stride must be positive")
	}
	if o.Padding < 0 {
		panic("tensor: " + op + " padding must be non-negative")
	}
}

// convOutDim returns the output spatial size for input size in, kernel k.
func convOutDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// Im2Col unfolds the (N, C, H, W) input into a matrix of shape
// (N*OH*OW, C*KH*KW) so that convolution becomes a matrix multiply. The
// matrix comes from x's arena, or the heap for a heap x.
func Im2Col(x *Tensor, kh, kw int, opts Conv2DOpts) *Tensor {
	if x.Rank() != 4 {
		panic("tensor: Im2Col of non-NCHW tensor")
	}
	opts.check("Im2Col")
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	s, p := opts.Stride, opts.Padding
	oh := convOutDim(h, kh, s, p)
	ow := convOutDim(w, kw, s, p)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col empty output for input %dx%d kernel %dx%d", h, w, kh, kw))
	}
	cols := NewRawIn(x.arena, n*oh*ow, c*kh*kw)
	xp, hp, wp := padPlanes(x.arena, x.data, n*c, h, w, p)
	// Each (image, output-row) pair writes a disjoint band of cols, so the
	// fill shards freely: bit-identical at any worker count.
	if n*oh*ow*c*kh*kw >= convParallelMinWork {
		parallel.Shared().RunRange(n*oh, convRowGrain, func(lo, hi int) {
			im2colRows(cols.data, xp, lo, hi, c, hp, wp, oh, ow, kh, kw, s)
		})
	} else {
		im2colRows(cols.data, xp, 0, n*oh, c, hp, wp, oh, ow, kh, kw, s)
	}
	return cols
}

// padPlanes returns x's h×w planes, planes of them, each surrounded by
// p zeros on every side, as (h+2p)×(w+2p) planes from arena a; with
// p = 0 it returns x itself. In padded coordinates every window of a
// convolution lies inside its plane, so the unfold and the fold need no
// bounds tests.
func padPlanes(a *Arena, x []float64, planes, h, w, p int) (xp []float64, hp, wp int) {
	if p == 0 {
		return x, h, w
	}
	hp, wp = h+2*p, w+2*p
	xp = newIn(a, []int{planes * hp * wp}).data
	for pl := 0; pl < planes; pl++ {
		for y := 0; y < h; y++ {
			src := x[(pl*h+y)*w:][:w]
			dst := xp[(pl*hp+y+p)*wp+p:][:len(src)]
			for i, v := range src {
				dst[i] = v
			}
		}
	}
	return xp, hp, wp
}

// im2colRows fills the unfold rows of flattened (image, output-row)
// indices [lo, hi) from xp, the input planes padded to hp×wp. Each
// window's taps all lie inside its padded plane, so every cell of cols
// is written, padding taps with the padding's zeros.
func im2colRows(cols, xp []float64, lo, hi, c, hp, wp, oh, ow, kh, kw, s int) {
	ck := c * kh * kw
	for r := lo; r < hi; r++ {
		img, oy := r/oh, r%oh
		band := cols[r*ow*ck:][:ow*ck]
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				src := xp[((img*c+ch)*hp+oy*s+ky)*wp:][:wp]
				unfoldRow(band, src, (ch*kh+ky)*kw, ck, kw, s)
			}
		}
	}
}

// unfoldRow copies what one padded input row src gives the windows of
// one output row: tap kx of window ox is src[ox*s+kx], and it goes to
// cell o+kx of the window's unfold row in band, whose rows are ck apart.
// Each tap is one strided loop over the windows, a few instructions an
// element, where a kw-long run per window spent most of its time setting
// up the run. It stays out of line: inlined into im2colRows, whose loops
// keep a dozen indices live, its own went to the stack.
//
//go:noinline
func unfoldRow(band, src []float64, o, ck, kw, s int) {
	for kx := 0; kx < kw; kx++ {
		for d, ix := o+kx, kx; d < len(band); d, ix = d+ck, ix+s {
			band[d] = src[ix]
		}
	}
}

// Col2Im folds the Im2Col matrix back into an (N, C, H, W) tensor,
// accumulating overlapping contributions. It is the adjoint of Im2Col and
// is used for convolution input gradients.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw int, opts Conv2DOpts) *Tensor {
	opts.check("Col2Im")
	s, p := opts.Stride, opts.Padding
	oh := convOutDim(h, kh, s, p)
	ow := convOutDim(w, kw, s, p)
	if cols.Rank() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: Col2Im shape %v inconsistent", cols.shape))
	}
	// The fold accumulates into zeroed padded planes, which are x itself
	// when there is no padding; otherwise x takes their interiors.
	var x *Tensor
	xp, hp, wp := []float64(nil), h+2*p, w+2*p
	if p == 0 {
		x = newIn(cols.arena, []int{n, c, h, w})
		xp = x.data
	} else {
		x = NewRawIn(cols.arena, n, c, h, w)
		xp = newIn(cols.arena, []int{n * c * hp * wp}).data
	}
	// Contributions overlap within an image but never across images, so
	// the fold shards by image; per-image accumulation order is the loop
	// order either way, keeping the output bit-identical at any worker
	// count.
	if n > 1 && n*oh*ow*c*kh*kw >= convParallelMinWork {
		parallel.Shared().RunRange(n, 1, func(lo, hi int) {
			col2imImages(xp, cols.data, lo, hi, c, hp, wp, oh, ow, kh, kw, s)
		})
	} else {
		col2imImages(xp, cols.data, 0, n, c, hp, wp, oh, ow, kh, kw, s)
	}
	if p > 0 {
		for pl := 0; pl < n*c; pl++ {
			for y := 0; y < h; y++ {
				dst := x.data[(pl*h+y)*w:][:w]
				for i, v := range xp[(pl*hp+y+p)*wp+p:][:len(dst)] {
					dst[i] = v
				}
			}
		}
	}
	return x
}

// col2imImages folds the unfold rows of images [lo, hi) back into the
// zeroed padded planes xp (hp×wp), one (output row, channel, kernel row)
// at a time. Within an output row each element of a plane lies under a
// single kernel row, and foldRow adds its contributions in ox order, so
// every element still accumulates in (oy, ox) order.
func col2imImages(xp, cols []float64, lo, hi, c, hp, wp, oh, ow, kh, kw, s int) {
	ck := c * kh * kw
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			band := cols[(img*oh+oy)*ow*ck:][:ow*ck]
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < kh; ky++ {
					dst := xp[((img*c+ch)*hp+oy*s+ky)*wp:][:wp]
					foldRow(dst, band, (ch*kh+ky)*kw, ck, kw, s)
				}
			}
		}
	}
}

// foldRow is unfoldRow's adjoint: tap kx of window ox adds cell o+kx of
// its unfold row into dst[ox*s+kx]. The taps run from the last to the
// first, so the windows that reach one element (a larger ox with a
// smaller kx) add into it in ascending ox order. Out of line as
// unfoldRow is.
//
//go:noinline
func foldRow(dst, band []float64, o, ck, kw, s int) {
	for kx := kw - 1; kx >= 0; kx-- {
		for d, ix := o+kx, kx; d < len(band); d, ix = d+ck, ix+s {
			dst[ix] += band[d]
		}
	}
}

// Conv2D convolves the (N, C, H, W) input with (F, C, KH, KW) kernels and
// an optional length-F bias. It returns the (N, F, OH, OW) output and the
// (N*OH*OW, C*KH*KW) unfold of x it multiplied, both from x's arena; the
// backward pass builds the kernel gradient from that unfold.
func Conv2D(x, kernel, bias *Tensor, opts Conv2DOpts) (out, cols *Tensor) {
	if x.Rank() != 4 || kernel.Rank() != 4 {
		panic("tensor: Conv2D wants NCHW input and FCHW kernel")
	}
	opts.check("Conv2D")
	n, c := x.shape[0], x.shape[1]
	f, kc, kh, kw := kernel.shape[0], kernel.shape[1], kernel.shape[2], kernel.shape[3]
	if kc != c {
		panic(fmt.Sprintf("tensor: Conv2D channels %d vs kernel %d", c, kc))
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != f) {
		panic("tensor: Conv2D bias shape")
	}
	oh := convOutDim(x.shape[2], kh, opts.Stride, opts.Padding)
	ow := convOutDim(x.shape[3], kw, opts.Stride, opts.Padding)

	cols = Im2Col(x, kh, kw, opts)
	// The kernel transpose, product and output go to the input's arena
	// explicitly: the kernel is a heap parameter, which would otherwise
	// break the arena inheritance chain at every convolution layer.
	ck := c * kh * kw
	kmat := NewRawIn(x.arena, ck, f) // kernel.Reshape(f, ck) transposed
	km, kd := kmat.data, kernel.data
	for i := 0; i < f; i++ {
		for j := 0; j < ck; j++ {
			km[j*f+i] = kd[i*ck+j]
		}
	}
	prod := NewRawIn(x.arena, n*oh*ow, f) // (N*OH*OW, F)
	matMulInto(prod, cols, kmat)
	// Each image's (OH*OW, F) block of the product becomes F planes.
	out = NewRawIn(x.arena, n, f, oh, ow)
	plane := oh * ow
	for img := 0; img < n; img++ {
		src := prod.data[img*plane*f:][:plane*f]
		for ch := 0; ch < f; ch++ {
			dst := out.data[(img*f+ch)*plane:][:plane]
			if bias == nil {
				for i := range dst {
					dst[i] = src[i*f+ch]
				}
				continue
			}
			b := bias.data[ch]
			for i := range dst {
				dst[i] = src[i*f+ch] + b
			}
		}
	}
	return out, cols
}

// MaxPool2D applies non-overlapping-or-strided max pooling with a k×k
// window. It returns the pooled output and the flat argmax index (into the
// input tensor's data) for each output element, which the backward pass
// uses to route gradients; both come from x's arena, or the heap for a
// heap x. Each window keeps the first of its largest elements in
// row-major order under a strict >: an equal later element (+0 after -0
// included) never replaces it, a NaN first in the window stays, and a
// later NaN is never taken.
func MaxPool2D(x *Tensor, k, stride int) (*Tensor, []int) {
	if x.Rank() != 4 {
		panic("tensor: MaxPool2D of non-NCHW tensor")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := convOutDim(h, k, stride, 0)
	ow := convOutDim(w, k, stride, 0)
	out := NewRawIn(x.arena, n, c, oh, ow)
	arg := intsIn(x.arena, len(out.data))
	maxPool(out.data, arg, x.data, n*c, h, w, oh, ow, k, stride)
	return out, arg
}

// The pooling loop selects without a branch. Each comparison stays a
// float compare, but what it picks is the element's bits and its index:
// integer selects, which the compiler turns into conditional moves. It
// never does so for a float select or for a select that feeds a load
// address, and the branches it leaves depend on activations that are new
// every step, which the predictor cannot learn.

// maxPool pools planes h×w planes with k×k windows at stride s.
func maxPool(out []float64, arg []int, x []float64, planes, h, w, oh, ow, k, s int) {
	oi := 0
	for p := 0; p < planes; p++ {
		base := p * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bi := base + oy*s*w + ox*s
				bb := math.Float64bits(x[bi])
				for ky := 0; ky < k; ky++ {
					row := base + (oy*s+ky)*w + ox*s
					for kx, v := range x[row : row+k] {
						vb, vi := math.Float64bits(v), row+kx
						if v > math.Float64frombits(bb) {
							bb, bi = vb, vi
						}
					}
				}
				out[oi] = math.Float64frombits(bb)
				arg[oi] = bi
				oi++
			}
		}
	}
}

// AvgPool2DGlobal averages each channel's full spatial extent, returning an
// (N, C) matrix. It is the global average pooling used before classifier
// heads.
func AvgPool2DGlobal(x *Tensor) *Tensor {
	if x.Rank() != 4 {
		panic("tensor: AvgPool2DGlobal of non-NCHW tensor")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := NewRawIn(x.arena, n, c)
	area := float64(h * w)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			var s float64
			for i := 0; i < h*w; i++ {
				s += x.data[base+i]
			}
			out.data[img*c+ch] = s / area
		}
	}
	return out
}
