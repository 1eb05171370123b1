package tensor

import "testing"

// TestArenaZeroedAndDisjoint pins the two properties arithmetic relies on:
// arena tensors come back zero-filled (like New) and successive allocations
// never alias.
func TestArenaZeroedAndDisjoint(t *testing.T) {
	a := NewArena()
	x := NewIn(a, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = 7
	}
	y := NewIn(a, 4, 4)
	for _, v := range y.Data() {
		if v != 0 {
			t.Fatal("arena tensor not zero-filled")
		}
	}
	for i := range y.Data() {
		y.Data()[i] = 3
	}
	for _, v := range x.Data() {
		if v != 7 {
			t.Fatal("allocations alias")
		}
	}
	if x.Arena() != a || y.Arena() != a {
		t.Fatal("arena tensors must report their arena")
	}
}

// TestArenaResetReusesSlabs: after a warm-up pass, repeating the same
// allocation sequence must not grow the arena footprint, and memory is
// recycled (the second pass's tensors reuse the first's slabs).
func TestArenaResetReusesSlabs(t *testing.T) {
	a := NewArena()
	pass := func() []*Tensor {
		var ts []*Tensor
		for i := 0; i < 10; i++ {
			ts = append(ts, NewIn(a, 32, 32))
		}
		return ts
	}
	first := pass()
	warm := SlabFloats(a)
	if warm == 0 {
		t.Fatal("warm arena reports zero capacity")
	}
	a.Reset()
	second := pass()
	if got := SlabFloats(a); got != warm {
		t.Fatalf("repeat pass grew the arena: %d -> %d floats", warm, got)
	}
	if &first[0].Data()[0] != &second[0].Data()[0] {
		t.Fatal("reset did not recycle slab memory")
	}
	// Zeroed again despite the first pass's writes.
	for i := range first[3].Data() {
		first[3].Data()[i] = 9
	}
	a.Reset()
	if v := NewIn(a, 32, 32); v.Data()[0] != 0 {
		t.Fatal("recycled memory not re-zeroed")
	}
}

// TestArenaOversizedAllocation: requests larger than the slab size get a
// dedicated slab rather than panicking or splitting.
func TestArenaOversizedAllocation(t *testing.T) {
	a := NewArena()
	big := NewIn(a, arenaFloatSlab+100)
	if big.Size() != arenaFloatSlab+100 {
		t.Fatal("oversized allocation has wrong size")
	}
	small := NewIn(a, 8)
	for i := range small.Data() {
		small.Data()[i] = 1
	}
	if big.Data()[len(big.Data())-1] != 0 {
		t.Fatal("oversized and small allocations overlap")
	}
}

// TestArenaInheritance: operation results and views inherit the receiver's
// arena; heap tensors never pick one up.
func TestArenaInheritance(t *testing.T) {
	a := NewArena()
	x := FullIn(a, 2, 3, 3)
	heap := Full(2, 3, 3)
	if heap.Arena() != nil {
		t.Fatal("heap tensor claims an arena")
	}
	cases := map[string]*Tensor{
		"Add":         x.Add(heap),
		"Scale":       x.Scale(2),
		"Apply":       x.Apply(func(v float64) float64 { return v }),
		"Clone":       x.Clone(),
		"Reshape":     x.Reshape(9),
		"MatMul":      x.Reshape(3, 3).MatMul(heap.Reshape(3, 3)),
		"Transpose2D": x.Reshape(3, 3).Transpose2D(),
		"SumAxis0":    x.Reshape(3, 3).SumAxis0(),
		"SoftmaxRows": x.Reshape(3, 3).SoftmaxRows(),
	}
	for name, r := range cases {
		if r.Arena() != a {
			t.Errorf("%s result did not inherit the arena", name)
		}
	}
	if heap.Add(x).Arena() != nil {
		t.Error("heap receiver result must stay on the heap")
	}
	// NewIn with a nil arena is plain heap allocation.
	if NewIn(nil, 2, 2).Arena() != nil {
		t.Error("NewIn(nil) must allocate from the heap")
	}
}

// TestArenaSteadyStateAllocs: once warm, an arena-backed op chain performs
// zero heap allocations per iteration.
func TestArenaSteadyStateAllocs(t *testing.T) {
	a := NewArena()
	heap := Full(1, 16, 16)
	iter := func() {
		a.Reset()
		x := NewIn(a, 16, 16)
		copy(x.Data(), heap.Data())
		y := x.MatMul(x).Add(x).Scale(0.5)
		_ = y.Transpose2D().SumAxis0()
	}
	iter() // warm the slabs
	if n := testing.AllocsPerRun(20, iter); n > 0 {
		t.Errorf("steady-state arena op chain allocates %v times per run", n)
	}
}
