package perf

import (
	"math"
	"testing"

	"summitscale/internal/machine"
)

func TestRooflineShape(t *testing.T) {
	r := RooflineFor(machine.V100())
	ridge := r.RidgeIntensity()
	// V100: 125 TF / 900 GB/s ≈ 139 flops/byte.
	if math.Abs(ridge-125e12/900e9)/ridge > 1e-9 {
		t.Fatalf("ridge = %v", ridge)
	}
	// Below the ridge: bandwidth-bound, linear in intensity.
	low := r.Attainable(ridge / 10)
	if math.Abs(float64(low)-float64(r.Peak)/10)/float64(r.Peak) > 1e-9 {
		t.Fatalf("bandwidth-bound rate = %v", low)
	}
	// Above the ridge: flat at peak.
	if r.Attainable(ridge*10) != r.Peak {
		t.Fatal("compute-bound region not capped at peak")
	}
}

func TestAttainableMonotone(t *testing.T) {
	r := RooflineFor(machine.V100())
	prev := 0.0
	for i := 1; i <= 300; i++ {
		cur := float64(r.Attainable(float64(i)))
		if cur < prev {
			t.Fatalf("attainable not monotone at intensity %d", i)
		}
		prev = cur
	}
}

// TestPaperKernelClassification checks §VI-B's claim: big-matrix
// operations (matmul/conv at training tile sizes) are compute-bound while
// recurrent/elementwise operations are memory-bound.
func TestPaperKernelClassification(t *testing.T) {
	r := RooflineFor(machine.V100())
	if !r.ComputeBound(KernelIntensity("matmul", 1024)) {
		t.Error("1024-matmul should be compute-bound")
	}
	if !r.ComputeBound(KernelIntensity("conv", 2048)) {
		t.Error("large conv should be compute-bound")
	}
	if r.ComputeBound(KernelIntensity("recurrent", 0)) {
		t.Error("recurrent ops should be memory-bound")
	}
	// Small matrices fall below the ridge — the paper's note that "high
	// floating point rates ... require large matrix sizes".
	if r.ComputeBound(KernelIntensity("matmul", 64)) {
		t.Error("64-matmul should be memory-bound")
	}
}

func TestKernelIntensityUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	KernelIntensity("quantum", 1)
}
