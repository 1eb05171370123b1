package autograd

import (
	"fmt"

	"summitscale/internal/tensor"
)

// Conv1D applies a dilated causal 1-D convolution: input (N, C, T),
// kernel (F, C, K), optional bias (F); output (N, F, T). Causal padding
// (K-1)*dilation keeps the output length equal to the input length and
// ensures position t sees only positions <= t — the WaveNet structure of
// Khan et al.'s network.
func Conv1D(a, kernel, bias *Value, dilation int) *Value {
	if a.Data.Rank() != 3 || kernel.Data.Rank() != 3 {
		panic("autograd: Conv1D wants (N,C,T) input and (F,C,K) kernel")
	}
	if dilation < 1 {
		panic("autograd: Conv1D dilation must be >= 1")
	}
	n, c, tLen := a.Data.Dim(0), a.Data.Dim(1), a.Data.Dim(2)
	f, kc, k := kernel.Data.Dim(0), kernel.Data.Dim(1), kernel.Data.Dim(2)
	if kc != c {
		panic(fmt.Sprintf("autograd: Conv1D channels %d vs kernel %d", c, kc))
	}
	if bias != nil && (bias.Data.Rank() != 1 || bias.Data.Dim(0) != f) {
		panic("autograd: Conv1D bias shape")
	}

	out := tensor.New(n, f, tLen)
	ad, kd, od := a.Data.Data(), kernel.Data.Data(), out.Data()
	idxIn := func(img, ch, t int) int { return (img*c+ch)*tLen + t }
	idxOut := func(img, ch, t int) int { return (img*f+ch)*tLen + t }
	idxK := func(fo, ch, kk int) int { return (fo*c+ch)*k + kk }
	for img := 0; img < n; img++ {
		for fo := 0; fo < f; fo++ {
			var b0 float64
			if bias != nil {
				b0 = bias.Data.At(fo)
			}
			for t := 0; t < tLen; t++ {
				acc := b0
				for ch := 0; ch < c; ch++ {
					for kk := 0; kk < k; kk++ {
						// Causal: tap kk reaches back (k-1-kk)*dilation.
						ti := t - (k-1-kk)*dilation
						if ti >= 0 {
							acc += ad[idxIn(img, ch, ti)] * kd[idxK(fo, ch, kk)]
						}
					}
				}
				od[idxOut(img, fo, t)] = acc
			}
		}
	}

	parents := []*Value{a, kernel}
	if bias != nil {
		parents = append(parents, bias)
	}
	node := newNode(out, parents...)
	node.backward = func() {
		gd := node.Grad.Data()
		ga := tensor.New(a.Data.Shape()...)
		gk := tensor.New(kernel.Data.Shape()...)
		gad, gkd := ga.Data(), gk.Data()
		var gb *tensor.Tensor
		if bias != nil {
			gb = tensor.New(f)
		}
		for img := 0; img < n; img++ {
			for fo := 0; fo < f; fo++ {
				for t := 0; t < tLen; t++ {
					g := gd[idxOut(img, fo, t)]
					if g == 0 {
						continue
					}
					if gb != nil {
						gb.Data()[fo] += g
					}
					for ch := 0; ch < c; ch++ {
						for kk := 0; kk < k; kk++ {
							ti := t - (k-1-kk)*dilation
							if ti >= 0 {
								gad[idxIn(img, ch, ti)] += g * kd[idxK(fo, ch, kk)]
								gkd[idxK(fo, ch, kk)] += g * ad[idxIn(img, ch, ti)]
							}
						}
					}
				}
			}
		}
		a.take(ga)
		kernel.take(gk)
		if bias != nil {
			bias.take(gb)
		}
	}
	return node
}
