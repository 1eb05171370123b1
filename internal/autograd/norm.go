package autograd

import (
	"math"

	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// LayerNorm normalizes each row of the rank-2 input to zero mean and unit
// variance, then applies the learned per-feature gain and shift. It is the
// normalization used in transformer blocks.
func LayerNorm(a, gain, shift *Value, eps float64) *Value {
	m, c := a.Data.Dim(0), a.Data.Dim(1)
	out := tensor.NewIn(a.Data.Arena(), m, c)
	xhat := tensor.NewIn(a.Data.Arena(), m, c)
	invStd := make([]float64, m)
	ad, od, xd := a.Data.Data(), out.Data(), xhat.Data()
	gd, sd := gain.Data.Data(), shift.Data.Data()
	for i := 0; i < m; i++ {
		row := ad[i*c : (i+1)*c]
		var mean float64
		for _, x := range row {
			mean += x
		}
		mean /= float64(c)
		var va float64
		for _, x := range row {
			d := x - mean
			va += d * d
		}
		va /= float64(c)
		is := 1 / math.Sqrt(va+eps)
		invStd[i] = is
		for j, x := range row {
			xh := (x - mean) * is
			xd[i*c+j] = xh
			od[i*c+j] = xh*gd[j] + sd[j]
		}
	}
	n := newNode(out, a, gain, shift)
	n.backward = func() {
		nd := n.Grad.Data()
		ga := tensor.NewIn(n.Grad.Arena(), m, c)
		gg := tensor.NewIn(n.Grad.Arena(), c)
		gs := tensor.NewIn(n.Grad.Arena(), c)
		gad, ggd, gsd := ga.Data(), gg.Data(), gs.Data()
		for i := 0; i < m; i++ {
			// Per-row reductions for the normalization chain rule.
			var sumDy, sumDyXhat float64
			for j := 0; j < c; j++ {
				dy := nd[i*c+j] * gd[j]
				sumDy += dy
				sumDyXhat += dy * xd[i*c+j]
			}
			for j := 0; j < c; j++ {
				dy := nd[i*c+j] * gd[j]
				gad[i*c+j] = invStd[i] * (dy - sumDy/float64(c) - xd[i*c+j]*sumDyXhat/float64(c))
				ggd[j] += nd[i*c+j] * xd[i*c+j]
				gsd[j] += nd[i*c+j]
			}
		}
		a.take(ga)
		gain.take(gg)
		shift.take(gs)
	}
	return n
}

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions (training-mode statistics), with learned per-channel
// gain and shift.
func BatchNorm2D(a, gain, shift *Value, eps float64) *Value {
	nIn, c, h, w := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2), a.Data.Dim(3)
	hw := h * w
	cnt := float64(nIn * hw)
	ar := a.Data.Arena()
	out := tensor.NewIn(ar, nIn, c, h, w)
	xhat := tensor.NewIn(ar, nIn, c, h, w)
	invStd := tensor.NewIn(ar, c).Data()
	ad, od, xd := a.Data.Data(), out.Data(), xhat.Data()
	gd, sd := gain.Data.Data(), shift.Data.Data()

	// Channel ch of image img is the contiguous plane at (img*c+ch)*hw;
	// every sum walks a channel's planes in image order.
	for ch := 0; ch < c; ch++ {
		var mean float64
		for img := 0; img < nIn; img++ {
			for _, x := range ad[(img*c+ch)*hw:][:hw] {
				mean += x
			}
		}
		mean /= cnt
		var va float64
		for img := 0; img < nIn; img++ {
			for _, x := range ad[(img*c+ch)*hw:][:hw] {
				d := x - mean
				va += d * d
			}
		}
		va /= cnt
		is := 1 / math.Sqrt(va+eps)
		invStd[ch] = is
		g, sh := gd[ch], sd[ch]
		for img := 0; img < nIn; img++ {
			base := (img*c + ch) * hw
			src := ad[base:][:hw]
			xp, op := xd[base:][:hw], od[base:][:hw]
			for i, x := range src {
				xh := (x - mean) * is
				xp[i] = xh
				op[i] = xh*g + sh
			}
		}
	}
	n := newNode(out, a, gain, shift)
	n.backward = func() {
		nd := n.Grad.Data()
		ga := tensor.NewIn(n.Grad.Arena(), nIn, c, h, w)
		gg := tensor.NewIn(n.Grad.Arena(), c)
		gs := tensor.NewIn(n.Grad.Arena(), c)
		gad, ggd, gsd := ga.Data(), gg.Data(), gs.Data()
		for ch := 0; ch < c; ch++ {
			g := gd[ch]
			var sumDy, sumDyXhat, sumGain, sumShift float64
			for img := 0; img < nIn; img++ {
				base := (img*c + ch) * hw
				dp, xp := nd[base:][:hw], xd[base:][:hw]
				for i, d := range dp {
					dy := d * g
					sumDy += dy
					sumDyXhat += dy * xp[i]
					sumGain += d * xp[i]
					sumShift += d
				}
			}
			ggd[ch], gsd[ch] = sumGain, sumShift
			is, meanDy := invStd[ch], sumDy/cnt
			for img := 0; img < nIn; img++ {
				base := (img*c + ch) * hw
				dp, xp, gp := nd[base:][:hw], xd[base:][:hw], gad[base:][:hw]
				for i, d := range dp {
					dy := d * g
					gp[i] = is * (dy - meanDy - xp[i]*sumDyXhat/cnt)
				}
			}
		}
		a.take(ga)
		gain.take(gg)
		shift.take(gs)
	}
	return n
}

// Dropout zeroes each element with probability p during training and scales
// the survivors by 1/(1-p) (inverted dropout). With train=false it is the
// identity.
func Dropout(a *Value, p float64, train bool, rng *stats.RNG) *Value {
	if !train || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("autograd: dropout probability must be < 1")
	}
	mask := tensor.New(a.Data.Shape()...)
	md := mask.Data()
	keep := 1 / (1 - p)
	for i := range md {
		if !rng.Bool(p) {
			md[i] = keep
		}
	}
	n := newNode(a.Data.Mul(mask), a)
	n.backward = func() { a.take(n.Grad.Mul(mask)) }
	return n
}

// EmbeddingLookup gathers rows of the embedding table for each id, returning
// an (len(ids), dim) matrix. Gradients scatter-add back into the table.
func EmbeddingLookup(table *Value, ids []int) *Value {
	vocab, dim := table.Data.Dim(0), table.Data.Dim(1)
	out := tensor.New(len(ids), dim)
	td, od := table.Data.Data(), out.Data()
	for i, id := range ids {
		if id < 0 || id >= vocab {
			panic("autograd: embedding id out of range")
		}
		copy(od[i*dim:(i+1)*dim], td[id*dim:(id+1)*dim])
	}
	n := newNode(out, table)
	n.backward = func() {
		g := tensor.New(vocab, dim)
		gd, nd := g.Data(), n.Grad.Data()
		for i, id := range ids {
			for j := 0; j < dim; j++ {
				gd[id*dim+j] += nd[i*dim+j]
			}
		}
		table.take(g)
	}
	return n
}
