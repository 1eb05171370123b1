package tensor

import (
	"fmt"

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

// tapRange returns the kernel taps [k0, k1) of a window whose first tap
// sits at input coordinate start and that land inside [0, size). The range
// is empty (k0 >= k1) when the window lies wholly in the padding.
func tapRange(start, k, size int) (k0, k1 int) {
	return max(0, -start), min(k, size-start)
}

// Im2Col unfolds the (N, C, H, W) input into a matrix of shape
// (N*OH*OW, C*KH*KW) so that convolution becomes a matrix multiply. The
// matrix comes from x's arena, or the heap for a heap x; padding taps keep
// the allocator's zeros.
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
	cols := newIn(x.arena, []int{n * oh * ow, c * kh * kw})
	// Each (image, output-row) pair writes a disjoint band of cols, so the
	// fill shards freely: bit-identical at any worker count.
	if n*oh*ow*c*kh*kw >= convParallelMinWork {
		parallel.Shared().RunRange(n*oh, convRowGrain, func(lo, hi int) {
			im2colRows(cols.data, x.data, lo, hi, c, h, w, oh, ow, kh, kw, s, p)
		})
	} else {
		im2colRows(cols.data, x.data, 0, n*oh, c, h, w, oh, ow, kh, kw, s, p)
	}
	return cols
}

// im2colRows fills the unfold rows for flattened (image, output-row)
// indices [lo, hi) of a zeroed cols. The in-range taps of one (channel,
// kernel row) are one contiguous run of the input row, so each is a
// single copy; taps in the padding are never visited.
func im2colRows(cols, x []float64, lo, hi, c, h, w, oh, ow, kh, kw, s, p int) {
	ck := c * kh * kw
	for r := lo; r < hi; r++ {
		img, oy := r/oh, r%oh
		iy0 := oy*s - p
		ky0, ky1 := tapRange(iy0, kh, h)
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*s - p
			kx0, kx1 := tapRange(ix0, kw, w)
			if kx0 >= kx1 {
				continue
			}
			row := cols[(r*ow+ox)*ck:][:ck]
			for ch := 0; ch < c; ch++ {
				plane := x[(img*c+ch)*h*w:][:h*w]
				for ky := ky0; ky < ky1; ky++ {
					src := plane[(iy0+ky)*w+ix0+kx0:][:kx1-kx0]
					dst := row[(ch*kh+ky)*kw+kx0:][:len(src)]
					for i, v := range src {
						dst[i] = v
					}
				}
			}
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
	x := newIn(cols.arena, []int{n, c, h, w})
	// Contributions overlap within an image but never across images, so
	// the fold shards by image; per-image accumulation order is the loop
	// order either way, keeping the output bit-identical at any worker
	// count.
	if n > 1 && n*oh*ow*c*kh*kw >= convParallelMinWork {
		parallel.Shared().RunRange(n, 1, func(lo, hi int) {
			col2imImages(x.data, cols.data, lo, hi, c, h, w, oh, ow, kh, kw, s, p)
		})
	} else {
		col2imImages(x.data, cols.data, 0, n, c, h, w, oh, ow, kh, kw, s, p)
	}
	return x
}

// col2imImages folds the unfold rows of images [lo, hi) back into x with
// im2colRows' runs. An output pixel adds at most one contribution to any
// input element, so every element still accumulates in (oy, ox) order.
func col2imImages(x, cols []float64, lo, hi, c, h, w, oh, ow, kh, kw, s, p int) {
	ck := c * kh * kw
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s - p
			ky0, ky1 := tapRange(iy0, kh, h)
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*s - p
				kx0, kx1 := tapRange(ix0, kw, w)
				if kx0 >= kx1 {
					continue
				}
				row := cols[((img*oh+oy)*ow+ox)*ck:][:ck]
				for ch := 0; ch < c; ch++ {
					plane := x[(img*c+ch)*h*w:][:h*w]
					for ky := ky0; ky < ky1; ky++ {
						dst := plane[(iy0+ky)*w+ix0+kx0:][:kx1-kx0]
						src := row[(ch*kh+ky)*kw+kx0:][:len(dst)]
						for i, v := range src {
							dst[i] += v
						}
					}
				}
			}
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
	kmat := newIn(x.arena, []int{ck, f}) // kernel.Reshape(f, ck) transposed
	km, kd := kmat.data, kernel.data
	for i := 0; i < f; i++ {
		for j := 0; j < ck; j++ {
			km[j*f+i] = kd[i*ck+j]
		}
	}
	prod := newIn(x.arena, []int{n * oh * ow, f}) // (N*OH*OW, F)
	matMulInto(prod, cols, kmat)
	// Each image's (OH*OW, F) block of the product becomes F planes.
	out = newIn(x.arena, []int{n, f, oh, ow})
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
// uses to route gradients.
func MaxPool2D(x *Tensor, k, stride int) (*Tensor, []int) {
	if x.Rank() != 4 {
		panic("tensor: MaxPool2D of non-NCHW tensor")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := convOutDim(h, k, stride, 0)
	ow := convOutDim(w, k, stride, 0)
	out := newIn(x.arena, []int{n, c, oh, ow})
	arg := make([]int, out.Size())
	oi := 0
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := base + (oy*stride)*w + ox*stride
					best := x.data[bestIdx]
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							idx := base + (oy*stride+ky)*w + (ox*stride + kx)
							if x.data[idx] > best {
								best = x.data[idx]
								bestIdx = idx
							}
						}
					}
					out.data[oi] = best
					arg[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out, arg
}

// AvgPool2DGlobal averages each channel's full spatial extent, returning an
// (N, C) matrix. It is the global average pooling used before classifier
// heads.
func AvgPool2DGlobal(x *Tensor) *Tensor {
	if x.Rank() != 4 {
		panic("tensor: AvgPool2DGlobal of non-NCHW tensor")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := newIn(x.arena, []int{n, c})
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
