package data

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSyntheticImagesDeterministic(t *testing.T) {
	s := NewSyntheticImages(1, 100, 10, 3, 8)
	a := s.Sample(7)
	b := s.Sample(7)
	if !a.X.Equal(b.X, 0) || a.Label != b.Label {
		t.Fatal("same index produced different samples")
	}
	c := s.Sample(8)
	if a.X.Equal(c.X, 0) {
		t.Fatal("different indices produced identical images")
	}
}

func TestSyntheticImagesLabelsAndShape(t *testing.T) {
	s := NewSyntheticImages(2, 30, 10, 3, 8)
	for i := 0; i < 30; i++ {
		smp := s.Sample(i)
		if smp.Label != i%10 {
			t.Fatalf("label of %d = %d", i, smp.Label)
		}
		if smp.X.Dim(0) != 3 || smp.X.Dim(1) != 8 || smp.X.Dim(2) != 8 {
			t.Fatalf("shape = %v", smp.X.Shape())
		}
	}
	if s.Classes() != 10 || s.Len() != 30 {
		t.Fatal("metadata wrong")
	}
	if s.BytesPerSample() <= 0 {
		t.Fatal("record size not positive")
	}
}

func TestSyntheticImagesClassesDiffer(t *testing.T) {
	s := NewSyntheticImages(3, 100, 4, 1, 16)
	// Average image per class should differ across classes (textures have
	// class-dependent frequency content).
	var norms [4]float64
	for cls := 0; cls < 4; cls++ {
		a := s.Sample(cls).X
		b := s.Sample(cls + 4).X // same class, different instance
		cdiff := s.Sample(cls + 1).X
		same := a.Sub(b).Norm()
		diff := a.Sub(cdiff).Norm()
		norms[cls] = diff - same
		_ = same
	}
	// At least some classes must be more self-similar than cross-similar.
	pos := 0
	for _, v := range norms {
		if v > 0 {
			pos++
		}
	}
	if pos < 2 {
		t.Fatalf("class textures not distinguishable: %v", norms)
	}
}

func TestClimateImagesVortexSignal(t *testing.T) {
	s := NewClimateImages(4, 40, 2, 16)
	// Label-1 images must have larger extreme values (the injected vortex).
	var maxStorm, maxCalm float64
	for i := 0; i < 40; i++ {
		smp := s.Sample(i)
		m := smp.X.MaxAbs()
		if smp.Label == 1 {
			maxStorm += m
		} else {
			maxCalm += m
		}
	}
	if maxStorm <= maxCalm {
		t.Fatalf("vortex images not distinguishable: storm=%v calm=%v", maxStorm, maxCalm)
	}
	if s.BytesPerSample() != 4*2*16*16 {
		t.Fatalf("climate record bytes = %v", s.BytesPerSample())
	}
}

func TestBatchImages(t *testing.T) {
	s := NewSyntheticImages(5, 20, 4, 2, 4)
	x, labels := BatchImages(s, []int{3, 1, 10})
	if x.Dim(0) != 3 || x.Dim(1) != 2 || x.Dim(2) != 4 || x.Dim(3) != 4 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if labels[0] != 3 || labels[1] != 1 || labels[2] != 10%4 {
		t.Fatalf("labels = %v", labels)
	}
	// Row 1 of the batch must equal sample 1 exactly.
	one := s.Sample(1).X
	per := one.Size()
	for i := 0; i < per; i++ {
		if x.Data()[per+i] != one.Data()[i] {
			t.Fatal("batch row 1 differs from sample 1")
		}
	}
}

func TestSMILESDeterministicAndInRange(t *testing.T) {
	s := NewSMILESSequences(6, 50, 24)
	a := s.Sequence(9)
	b := s.Sequence(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sequence not deterministic")
		}
		if a[i] < 0 || a[i] >= s.Vocab() {
			t.Fatalf("token %d out of vocab", a[i])
		}
	}
	if len(a) != 24 {
		t.Fatalf("sequence length %d", len(a))
	}
	// No sequence should start with a non-atom token per the grammar.
	if a[0] < tokFirstAtom || a[0] > tokLastAtom {
		t.Fatalf("sequence starts with token %d", a[0])
	}
}

func TestSMILESMaskedSample(t *testing.T) {
	s := NewSMILESSequences(7, 50, 32)
	input, target, masked := s.MaskedSample(3, 0.25)
	if len(input) != 32 || len(target) != 32 {
		t.Fatal("masked sample lengths wrong")
	}
	if len(masked) == 0 {
		t.Fatal("no positions masked")
	}
	for _, p := range masked {
		if input[p] != tokMask {
			t.Fatalf("masked position %d holds token %d", p, input[p])
		}
	}
	// Unmasked positions must match the target.
	maskedSet := map[int]bool{}
	for _, p := range masked {
		maskedSet[p] = true
	}
	for p := range input {
		if !maskedSet[p] && input[p] != target[p] {
			t.Fatalf("unmasked position %d altered", p)
		}
	}
}

func TestWaveformsParamsRecoverable(t *testing.T) {
	w := NewWaveforms(8, 20, 64, 0)
	series, params := w.Sample(0)
	if len(series) != 64 {
		t.Fatal("series length wrong")
	}
	for _, p := range params {
		if p < 0 || p > 1 {
			t.Fatalf("param %v out of [0,1]", p)
		}
	}
	// Determinism.
	s2, p2 := w.Sample(0)
	for i := range series {
		if series[i] != s2[i] {
			t.Fatal("waveform not deterministic")
		}
	}
	if params != p2 {
		t.Fatal("params not deterministic")
	}
	// Different parameters give different waveforms.
	s3, _ := w.Sample(1)
	var diff float64
	for i := range series {
		diff += math.Abs(series[i] - s3[i])
	}
	if diff < 1 {
		t.Fatal("distinct samples produced near-identical waveforms")
	}
}

func TestShardPartition(t *testing.T) {
	if err := quick.Check(func(nRaw, sizeRaw uint8) bool {
		n := int(nRaw) + 1
		size := int(sizeRaw)%16 + 1
		seen := make([]int, n)
		for r := 0; r < size; r++ {
			for _, i := range Shard(n, size, r) {
				if i < 0 || i >= n {
					return false
				}
				seen[i]++
			}
		}
		// Every sample assigned to exactly one rank.
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShardBalance(t *testing.T) {
	for _, tc := range []struct{ n, size int }{{100, 7}, {8, 3}, {5, 5}, {3, 8}} {
		minLen, maxLen := tc.n, 0
		for r := 0; r < tc.size; r++ {
			l := len(Shard(tc.n, tc.size, r))
			if l < minLen {
				minLen = l
			}
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("n=%d size=%d: shard imbalance %d..%d", tc.n, tc.size, minLen, maxLen)
		}
	}
}

func TestEpochOrderIsPermutationAndVaries(t *testing.T) {
	n := 50
	e0 := EpochOrder(1, 0, n)
	e1 := EpochOrder(1, 1, n)
	seen := make([]bool, n)
	for _, i := range e0 {
		if seen[i] {
			t.Fatal("duplicate in epoch order")
		}
		seen[i] = true
	}
	same := 0
	for i := range e0 {
		if e0[i] == e1[i] {
			same++
		}
	}
	if same > n/2 {
		t.Fatalf("epochs insufficiently shuffled: %d/%d fixed points", same, n)
	}
	// Determinism.
	again := EpochOrder(1, 0, n)
	for i := range e0 {
		if e0[i] != again[i] {
			t.Fatal("epoch order not deterministic")
		}
	}
}

func TestShardedEpochCoversAll(t *testing.T) {
	n, size := 31, 4
	seen := make([]int, n)
	for r := 0; r < size; r++ {
		for _, i := range ShardedEpoch(9, 2, n, size, r) {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d assigned %d times", i, c)
		}
	}
}

func TestBatches(t *testing.T) {
	idx := []int{0, 1, 2, 3, 4, 5, 6}
	bs := Batches(idx, 3)
	if len(bs) != 2 || len(bs[0]) != 3 || bs[1][2] != 5 {
		t.Fatalf("batches = %v", bs)
	}
	if got := Batches(idx, 8); got != nil {
		t.Fatalf("oversized batch yielded %v", got)
	}
}
