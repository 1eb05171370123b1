package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"summitscale/internal/stats"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad metadata: %v", x)
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(0, 2) != 3 || x.At(1, 0) != 4 || x.At(1, 2) != 6 {
		t.Fatalf("At wrong: %v", x)
	}
	x.Set(9, 1, 1)
	if x.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Set(42, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape did not share data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{4, 3, 2, 1}, 2, 2)
	if got := a.Add(b); !got.Equal(Full(5, 2, 2), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !got.Equal(FromSlice([]float64{-3, -1, 1, 3}, 2, 2), 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); !got.Equal(FromSlice([]float64{4, 6, 6, 4}, 2, 2), 0) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Div(b); !got.Equal(FromSlice([]float64{0.25, 2. / 3, 1.5, 4}, 2, 2), 1e-15) {
		t.Errorf("Div = %v", got)
	}
	if got := a.Scale(2); !got.Equal(FromSlice([]float64{2, 4, 6, 8}, 2, 2), 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.AddScalar(1); !got.Equal(FromSlice([]float64{2, 3, 4, 5}, 2, 2), 0) {
		t.Errorf("AddScalar = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestAddRowBroadcast(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	row := FromSlice([]float64{10, 20, 30}, 3)
	got := m.AddRow(row)
	want := FromSlice([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !got.Equal(want, 0) {
		t.Fatalf("AddRow = %v", got)
	}
}

func TestNormSumMean(t *testing.T) {
	x := FromSlice([]float64{3, 4}, 2)
	if x.Norm() != 5 {
		t.Errorf("Norm = %v", x.Norm())
	}
	if x.Sum() != 7 || x.Mean() != 3.5 {
		t.Errorf("Sum/Mean wrong")
	}
	if x.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %v", x.MaxAbs())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := a.MatMul(b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v", got)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := stats.NewRNG(1)
	a := Randn(rng, 1, 5, 5)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	if got := a.MatMul(id); !got.Equal(a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

// TestMatMulParallelMatchesSequential checks that the goroutine fan-out path
// produces exactly the row-band results of the sequential kernel.
func TestMatMulParallelMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(2)
	m, k, n := 97, 83, 71 // above the parallel threshold, awkward sizes
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	got := a.MatMul(b)
	want := New(m, n)
	matmulRows(want.Data(), a.Data(), b.Data(), 0, m, k, n)
	if !got.Equal(want, 1e-12) {
		t.Fatal("parallel matmul diverges from sequential")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := a.Transpose2D()
	want := FromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.Equal(want, 0) {
		t.Fatalf("Transpose = %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		m, n := rng.Intn(8)+1, rng.Intn(8)+1
		a := Randn(rng, 1, m, n)
		return a.Transpose2D().Transpose2D().Equal(a, 0)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatVecAndDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{5, 6}, 2)
	got := a.MatVec(v)
	if !got.Equal(FromSlice([]float64{17, 39}, 2), 1e-12) {
		t.Fatalf("MatVec = %v", got)
	}
	if d := v.Dot(FromSlice([]float64{1, 2}, 2)); d != 17 {
		t.Fatalf("Dot = %v", d)
	}
}

func TestOuter(t *testing.T) {
	u := FromSlice([]float64{1, 2}, 2)
	v := FromSlice([]float64{3, 4, 5}, 3)
	got := u.Outer(v)
	want := FromSlice([]float64{3, 4, 5, 6, 8, 10}, 2, 3)
	if !got.Equal(want, 0) {
		t.Fatalf("Outer = %v", got)
	}
}

func TestSumAxes(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := a.SumAxis0(); !got.Equal(FromSlice([]float64{5, 7, 9}, 3), 1e-12) {
		t.Errorf("SumAxis0 = %v", got)
	}
	if got := a.SumAxis1(); !got.Equal(FromSlice([]float64{6, 15}, 2), 1e-12) {
		t.Errorf("SumAxis1 = %v", got)
	}
	if got := a.MeanAxis0(); !got.Equal(FromSlice([]float64{2.5, 3.5, 4.5}, 3), 1e-12) {
		t.Errorf("MeanAxis0 = %v", got)
	}
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float64{0, 5, 2, 7, 1, 3}, 2, 3)
	got := a.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float64{1, 1, 1, 1000, 0, 0}, 2, 3)
	s := a.SoftmaxRows()
	for j := 0; j < 3; j++ {
		if math.Abs(s.At(0, j)-1./3) > 1e-12 {
			t.Fatalf("uniform softmax row wrong: %v", s)
		}
	}
	if math.Abs(s.At(1, 0)-1) > 1e-12 {
		t.Fatalf("peaked softmax row wrong: %v", s)
	}
	// Rows must sum to one.
	sums := s.SumAxis1()
	for i := 0; i < 2; i++ {
		if math.Abs(sums.At(i)-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", i, sums.At(i))
		}
	}
}

func TestSoftmaxRowsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		m, n := rng.Intn(5)+1, rng.Intn(9)+1
		a := Randn(rng, 10, m, n)
		s := a.SoftmaxRows()
		sums := s.SumAxis1()
		for i := 0; i < m; i++ {
			if math.Abs(sums.At(i)-1) > 1e-9 {
				return false
			}
		}
		for _, v := range s.Data() {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlice2DRowsView(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	s := a.Slice2DRows(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0) != 3 {
		t.Fatalf("slice = %v", s)
	}
	s.Set(99, 0, 0)
	if a.At(1, 0) != 99 {
		t.Fatal("Slice2DRows is not a view")
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float64{1, 4, 9}, 3)
	got := a.Apply(math.Sqrt)
	if !got.Equal(FromSlice([]float64{1, 2, 3}, 3), 1e-12) {
		t.Fatalf("Apply = %v", got)
	}
}

func TestRandnStatistics(t *testing.T) {
	rng := stats.NewRNG(5)
	x := Randn(rng, 2, 100, 100)
	if m := x.Mean(); math.Abs(m) > 0.1 {
		t.Errorf("Randn mean = %v", m)
	}
	sd := math.Sqrt(x.Sub(Full(x.Mean(), 100, 100)).Mul(x.Sub(Full(x.Mean(), 100, 100))).Mean())
	if math.Abs(sd-2) > 0.1 {
		t.Errorf("Randn sd = %v", sd)
	}
}
