package perf

import (
	"fmt"

	"summitscale/internal/machine"
	"summitscale/internal/units"
)

// Roofline is the device-level performance model behind §VI-B's
// observation that AI/ML workloads "boil down to 3 basic types of
// operations ... and are typically computation bound at the device
// level": attainable rate = min(peak, intensity × memory bandwidth).
type Roofline struct {
	Peak  units.FlopsPerSecond
	MemBW units.BytesPerSecond
}

// RooflineFor returns the mixed-precision tensor roofline of a GPU. It
// panics when the device lacks a positive peak rate or memory bandwidth.
func RooflineFor(g machine.GPU) Roofline {
	if !(g.PeakTensor > 0) || !(g.HBMBW > 0) {
		panic(fmt.Sprintf("perf: GPU %s needs positive tensor peak and HBM bandwidth (got %v, %v)",
			g.Name, float64(g.PeakTensor), float64(g.HBMBW)))
	}
	return Roofline{Peak: g.PeakTensor, MemBW: g.HBMBW}
}

// Attainable returns the achievable rate at the given arithmetic
// intensity (flops per byte moved).
func (r Roofline) Attainable(intensity float64) units.FlopsPerSecond {
	bwBound := units.FlopsPerSecond(intensity * float64(r.MemBW))
	if bwBound < r.Peak {
		return bwBound
	}
	return r.Peak
}

// RidgeIntensity returns the intensity at which the device transitions
// from memory-bound to compute-bound (peak / bandwidth).
func (r Roofline) RidgeIntensity() float64 {
	return float64(r.Peak) / float64(r.MemBW)
}

// ComputeBound reports whether a kernel of the given intensity saturates
// the arithmetic units rather than the memory system.
func (r Roofline) ComputeBound(intensity float64) bool {
	return intensity >= r.RidgeIntensity()
}

// KernelIntensity estimates the arithmetic intensity of the paper's three
// basic operation classes at mixed precision (2-byte elements).
//
// Matmul (M=N=K=n): 2n^3 flops over 3·2·n^2 bytes -> n/3 flops/byte.
// Convolution behaves like matmul with n ~ the im2col tile size.
// Recurrent/elementwise ops: O(1) flops per element -> ~0.5 flops/byte.
func KernelIntensity(kind string, n int) float64 {
	switch kind {
	case "matmul":
		return float64(n) / 3
	case "conv":
		return float64(n) / 3
	case "recurrent", "elementwise":
		return 0.5
	default:
		panic("perf: unknown kernel kind " + kind)
	}
}
