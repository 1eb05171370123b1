//go:build gc

package optim

import "summitscale/internal/tensor"

// lambSIMD reports whether LAMB's two per-element passes run the AVX2
// kernels in lamb_amd64.s. It is fixed at start-up from tensor's CPUID
// probe.
var lambSIMD = tensor.HasAVX2()

// lambMomentsAVX2 runs LAMB's moment pass over elements [0, n) of the
// weights wd with gradient gd, moments md and vd and raw update ud, four
// lanes at a time, and returns Σw² and Σu² over those elements. Each
// lane keeps the Go loop's operation order, with no fused multiply-add:
// m = β1·m + (1-β1)·g, v = β2·v + ((1-β2)·g)·g and
// u = m/bc1/(√(v/bc2)+ε) + decay·w. The sums add each lane's square in
// element order onto scalar chains that start at +0, so they equal the
// Go loop's serial sums bit for bit. n must be a positive multiple of 4.
//
//go:noescape
func lambMomentsAVX2(wd, gd, md, vd, ud *float64, n int, k *lambCoef) (wSq, uSq float64)

// lambApplyAVX2 sets wd[i] = wd[i] - s·ud[i] for i in [0, n), four lanes at
// a time, with the product rounded before the subtraction as in the Go
// loop. n must be a positive multiple of 4.
//
//go:noescape
func lambApplyAVX2(wd, ud *float64, n int, s float64)
