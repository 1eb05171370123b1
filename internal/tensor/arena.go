package tensor

// Arena is a step-scoped bump allocator for tensors. A training loop owns
// one arena per goroutine, calls Reset at the top of every step, and routes
// the step's temporaries through it: after a warm-up step the slabs have
// grown to the step's high-water mark and allocation becomes pointer
// arithmetic, so the steady-state step performs no tensor heap allocation.
//
// Contract: every tensor allocated from an arena — and every tensor derived
// from one, since operations inherit the receiver's arena — is INVALID after
// the next Reset. Memory that must survive a step (parameters, optimizer
// state) must stay on the heap.
//
// An arena is not safe for concurrent use; it belongs to one goroutine.
type Arena struct {
	floats     [][]float64
	fSlab, fOf int
	ints       [][]int
	iSlab, iOf int
	nodes      [][]Tensor
	nSlab, nOf int
}

const (
	arenaFloatSlab = 16 << 10 // float64s per slab (128 KiB)
	arenaIntSlab   = 1 << 10
	arenaNodeSlab  = 256
)

// NewArena returns an empty arena; slabs grow on demand.
func NewArena() *Arena { return &Arena{} }

// Reset rewinds the arena to empty, retaining slab capacity. All tensors
// previously allocated from it become invalid.
func (a *Arena) Reset() {
	a.fSlab, a.fOf = 0, 0
	a.iSlab, a.iOf = 0, 0
	a.nSlab, a.nOf = 0, 0
}

// NewIn returns a zero-filled tensor of the given shape, backed by the
// arena when a is non-nil and by the heap otherwise. It is the nil-safe
// allocation point operations use to inherit their operand's arena.
func NewIn(a *Arena, shape ...int) *Tensor { return newIn(a, shape) }

// FullIn is Full allocating from the arena (nil means heap).
func FullIn(a *Arena, v float64, shape ...int) *Tensor {
	t := NewRawIn(a, shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Arena returns the arena backing t, or nil for heap tensors.
func (t *Tensor) Arena() *Arena { return t.arena }

func newIn(a *Arena, shape []int) *Tensor {
	t := NewRawIn(a, shape...)
	if a != nil {
		clear(t.data)
	}
	return t
}

// NewRawIn is NewIn without the zero-fill of arena memory: the data holds
// whatever an earlier step left there. An operation may allocate its
// result with it only if it writes every element before anything reads
// one. Those that do are Clone, FullIn, the elementwise ops, AddRow, the
// transposes, SoftmaxRows, Im2Col, Col2Im's result, the conv output and
// kernel matrix, both poolings' outputs, and in autograd ConstantIn,
// ReLU, BatchNorm2D, LayerNorm and every backward that assigns its
// gradient rather than adding to it. Anything that accumulates into its
// output (the GEMMs, SumAxis0, Col2Im's padded planes, max-pool
// backward) must take NewIn.
// Heap memory comes from make and is zeroed either way.
func NewRawIn(a *Arena, shape ...int) *Tensor {
	n := checkShape(shape)
	if a == nil {
		return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
	}
	t := a.node()
	t.shape = a.shapeCopy(shape)
	t.data = a.alloc(n)
	t.arena = a
	return t
}

// intsIn returns an int slice of length n from the arena's int slabs, or
// from the heap when a is nil. Arena ints are not cleared, so the caller
// must write every element.
func intsIn(a *Arena, n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.allocInts(n)
}

// viewIn builds a tensor sharing data, placing the struct and shape copy in
// the arena when one is given. Used by Reshape and row slicing so views of
// arena tensors do not leak per-step heap allocations.
func viewIn(a *Arena, shape []int, data []float64) *Tensor {
	if a == nil {
		return &Tensor{shape: append([]int(nil), shape...), data: data}
	}
	t := a.node()
	t.shape = a.shapeCopy(shape)
	t.data = data
	t.arena = a
	return t
}

// alloc returns a float64 slice of length n from the slabs. It is not
// cleared: after a Reset it holds the previous step's values.
func (a *Arena) alloc(n int) []float64 {
	for {
		if a.fSlab < len(a.floats) {
			slab := a.floats[a.fSlab]
			if a.fOf+n <= len(slab) {
				s := slab[a.fOf : a.fOf+n : a.fOf+n]
				a.fOf += n
				return s
			}
			a.fSlab++
			a.fOf = 0
			continue
		}
		size := arenaFloatSlab
		if n > size {
			size = n
		}
		a.floats = append(a.floats, make([]float64, size))
	}
}

// shapeCopy stores a copy of shape in the int slabs.
func (a *Arena) shapeCopy(shape []int) []int {
	s := a.allocInts(len(shape))
	copy(s, shape)
	return s
}

// allocInts returns an int slice of length n from the int slabs. Like
// alloc, it is not cleared.
func (a *Arena) allocInts(n int) []int {
	for {
		if a.iSlab < len(a.ints) {
			slab := a.ints[a.iSlab]
			if a.iOf+n <= len(slab) {
				s := slab[a.iOf : a.iOf+n : a.iOf+n]
				a.iOf += n
				return s
			}
			a.iSlab++
			a.iOf = 0
			continue
		}
		size := arenaIntSlab
		if n > size {
			size = n
		}
		a.ints = append(a.ints, make([]int, size))
	}
}

// node returns a cleared Tensor struct from the node slabs.
func (a *Arena) node() *Tensor {
	for {
		if a.nSlab < len(a.nodes) {
			slab := a.nodes[a.nSlab]
			if a.nOf < len(slab) {
				t := &slab[a.nOf]
				a.nOf++
				*t = Tensor{}
				return t
			}
			a.nSlab++
			a.nOf = 0
			continue
		}
		a.nodes = append(a.nodes, make([]Tensor, arenaNodeSlab))
	}
}
