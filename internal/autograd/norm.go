package autograd

import (
	"math"

	"summitscale/internal/tensor"
)

// LayerNorm normalizes each row of the rank-2 input to zero mean and unit
// variance, then applies the learned per-feature gain and shift. It is the
// normalization used in transformer blocks.
func LayerNorm(a, gain, shift *Value, eps float64) *Value {
	m, c := a.Data.Dim(0), a.Data.Dim(1)
	out := tensor.NewRawIn(a.Data.Arena(), m, c)
	xhat := tensor.NewRawIn(a.Data.Arena(), m, c)
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
		ga := tensor.NewRawIn(n.Grad.Arena(), m, c)
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
	out := tensor.NewRawIn(ar, nIn, c, h, w)
	xhat := tensor.NewRawIn(ar, nIn, c, h, w)
	invStd := tensor.NewRawIn(ar, c).Data()
	ad, od, xd := a.Data.Data(), out.Data(), xhat.Data()
	gd, sd := gain.Data.Data(), shift.Data.Data()

	// Channel ch of image img is the contiguous plane at (img*c+ch)*hw;
	// every sum walks a channel's planes in image order, four channels
	// side by side (see planeSums4).
	for ch := 0; ch < c; ch += 4 {
		q := quad(ch, c)
		mean := planeSums4(ad, nIn, c, hw, q)
		for l := range mean {
			mean[l] /= cnt
		}
		va := planeSqDevs4(ad, nIn, c, hw, q, mean)
		for l := 0; l < 4 && ch+l < c; l++ {
			is := 1 / math.Sqrt(va[l]/cnt+eps)
			invStd[ch+l] = is
			g, sh, m := gd[ch+l], sd[ch+l], mean[l]
			for img := 0; img < nIn; img++ {
				base := (img*c + ch + l) * hw
				src := ad[base:][:hw]
				xp, op := xd[base:][:hw], od[base:][:hw]
				for i, x := range src {
					xh := (x - m) * is
					xp[i] = xh
					op[i] = float64(xh*g) + sh
				}
			}
		}
	}
	n := newNode(out, a, gain, shift)
	n.backward = func() {
		nd := n.Grad.Data()
		ga := tensor.NewRawIn(n.Grad.Arena(), nIn, c, h, w)
		gg := tensor.NewRawIn(n.Grad.Arena(), c)
		gs := tensor.NewRawIn(n.Grad.Arena(), c)
		gad, ggd, gsd := ga.Data(), gg.Data(), gs.Data()
		for ch := 0; ch < c; ch += 2 {
			c1 := min(ch+1, c-1)
			s := gradSums2(nd, xd, nIn, c, hw, ch, c1, gd[ch], gd[c1])
			for l := 0; l < 2 && ch+l < c; l++ {
				g, sums := gd[ch+l], s[l]
				ggd[ch+l], gsd[ch+l] = sums.gain, sums.shift
				is, meanDy := invStd[ch+l], sums.dy/cnt
				for img := 0; img < nIn; img++ {
					base := (img*c + ch + l) * hw
					dp, xp, gp := nd[base:][:hw], xd[base:][:hw], gad[base:][:hw]
					for i, d := range dp {
						dy := float64(d * g)
						gp[i] = is * (dy - meanDy - xp[i]*sums.dyXhat/cnt)
					}
				}
			}
		}
		a.take(ga)
		gain.take(gg)
		shift.take(gs)
	}
	return n
}

// A sum over a channel's planes is a chain of dependent adds, which runs
// at the adder's latency rather than its throughput. The helpers below
// run the chains of several channels side by side. Each channel still
// adds its own elements in image then element order, so every sum keeps
// the bits of summing one channel at a time. A last group with fewer
// channels repeats its last one in the spare lanes, whose results are
// dropped.

// quad returns channels ch to ch+3, clamped to the last of c channels.
func quad(ch, c int) [4]int {
	return [4]int{ch, min(ch+1, c-1), min(ch+2, c-1), min(ch+3, c-1)}
}

// planeSums4 returns the sums of the planes of channels q over nIn images
// of c channels of hw elements each.
func planeSums4(x []float64, nIn, c, hw int, q [4]int) [4]float64 {
	var s0, s1, s2, s3 float64
	for img := 0; img < nIn; img++ {
		p0 := x[(img*c+q[0])*hw:][:hw]
		p1 := x[(img*c+q[1])*hw:][:len(p0)]
		p2 := x[(img*c+q[2])*hw:][:len(p0)]
		p3 := x[(img*c+q[3])*hw:][:len(p0)]
		for i, v := range p0 {
			s0 += v
			s1 += p1[i]
			s2 += p2[i]
			s3 += p3[i]
		}
	}
	return [4]float64{s0, s1, s2, s3}
}

// planeSqDevs4 is planeSums4 over the squared deviations of each channel
// from its mean.
func planeSqDevs4(x []float64, nIn, c, hw int, q [4]int, mean [4]float64) [4]float64 {
	var s0, s1, s2, s3 float64
	m0, m1, m2, m3 := mean[0], mean[1], mean[2], mean[3]
	for img := 0; img < nIn; img++ {
		p0 := x[(img*c+q[0])*hw:][:hw]
		p1 := x[(img*c+q[1])*hw:][:len(p0)]
		p2 := x[(img*c+q[2])*hw:][:len(p0)]
		p3 := x[(img*c+q[3])*hw:][:len(p0)]
		for i, v := range p0 {
			d0, d1, d2, d3 := v-m0, p1[i]-m1, p2[i]-m2, p3[i]-m3
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
	}
	return [4]float64{s0, s1, s2, s3}
}

// bnSums are one channel's sums for BatchNorm2D's backward, over upstream
// gradient d, the normalized input x̂ and dy = d·gain: Σdy, Σdy·x̂, Σd·x̂
// (the gain's gradient) and Σd (the shift's).
type bnSums struct{ dy, dyXhat, gain, shift float64 }

// gradSums2 returns the bnSums of channels c0 and c1, with gains g0 and
// g1, side by side: eight chains, where one channel has four.
func gradSums2(nd, xd []float64, nIn, c, hw, c0, c1 int, g0, g1 float64) [2]bnSums {
	var s0, s1 bnSums
	for img := 0; img < nIn; img++ {
		d0 := nd[(img*c+c0)*hw:][:hw]
		x0 := xd[(img*c+c0)*hw:][:len(d0)]
		d1 := nd[(img*c+c1)*hw:][:len(d0)]
		x1 := xd[(img*c+c1)*hw:][:len(d0)]
		for i, d := range d0 {
			dy := float64(d * g0)
			s0.dy += dy
			s0.dyXhat += float64(dy * x0[i])
			s0.gain += float64(d * x0[i])
			s0.shift += d
			e := d1[i]
			ey := float64(e * g1)
			s1.dy += ey
			s1.dyXhat += float64(ey * x1[i])
			s1.gain += float64(e * x1[i])
			s1.shift += e
		}
	}
	return [2]bnSums{s0, s1}
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
