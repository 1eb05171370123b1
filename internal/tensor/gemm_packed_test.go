package tensor

import (
	"testing"
	"testing/quick"

	"summitscale/internal/stats"
)

// TestPackedMatchesRowStream pins the dispatch-table contract: the packed
// kernel is bit-identical to the row-streamed kernel (not merely close),
// because both accumulate each output element's k-terms in ascending
// order with the same zero-skip. Any drift here would let MatMul's size
// dispatch perturb goldens.
func TestPackedMatchesRowStream(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, dims := range [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {64, 64, 64}, {65, 63, 67},
		{128, 1, 128}, {1, 200, 1}, {130, 70, 190}, {129, 513, 33}, {256, 256, 256},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := New(m, n)
		matmulRows(want.Data(), a.Data(), b.Data(), 0, m, k, n)
		got := New(m, n)
		matMulPackedInto(got.Data(), a.Data(), b.Data(), m, k, n)
		if !got.Equal(want, 0) {
			t.Fatalf("packed kernel not bit-identical to row-stream at dims %v", dims)
		}
	}
}

// TestPackedMatchesRowStreamSparse repeats the bit-identity check with
// zero-heavy operands, exercising the zero-skip branches (including the
// -0/+0 corner the skip exists to preserve).
func TestPackedMatchesRowStreamSparse(t *testing.T) {
	rng := stats.NewRNG(13)
	m, k, n := 90, 130, 70
	a := New(m, k)
	b := New(k, n)
	for _, x := range []*Tensor{a, b} {
		d := x.Data()
		for i := range d {
			switch rng.Intn(4) {
			case 0:
				d[i] = rng.NormFloat64()
			case 1:
				d[i] = 0
			case 2:
				d[i] = -d[i] // stays ±0 or flips an earlier value
			}
		}
	}
	want := New(m, n)
	matmulRows(want.Data(), a.Data(), b.Data(), 0, m, k, n)
	got := New(m, n)
	matMulPackedInto(got.Data(), a.Data(), b.Data(), m, k, n)
	if !got.Equal(want, 0) {
		t.Fatal("packed kernel drifts from row-stream on sparse operands")
	}
}

// TestPackedMatchesNaiveProperty cross-checks the packed kernel against
// the independent naive kernel on random shapes.
func TestPackedMatchesNaiveProperty(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		rng := stats.NewRNG(uint64(seed))
		m := rng.Intn(60) + 1
		k := rng.Intn(60) + 1
		n := rng.Intn(60) + 1
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want := New(m, n)
		matmulNaive(want.Data(), a.Data(), b.Data(), m, k, n)
		got := New(m, n)
		matMulPackedInto(got.Data(), a.Data(), b.Data(), m, k, n)
		return got.Equal(want, 1e-9)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedEveryKC pins that the panel depth is pure performance: every
// autotune candidate yields bit-identical output (the per-element
// accumulation order is ascending k regardless of where panels split).
func TestPackedEveryKC(t *testing.T) {
	rng := stats.NewRNG(17)
	m, k, n := 70, 600, 50
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	want := New(m, n)
	matmulRows(want.Data(), a.Data(), b.Data(), 0, m, k, n)
	for _, kc := range append(gemmKCCandidates[:], 1, 7, 600, 1000) {
		got := New(m, n)
		packed := packB(b.Data(), k, n, kc)
		gemmPackedRows(got.Data(), a.Data(), packed, 0, m, k, n, kc)
		putPackBuf(packed)
		if !got.Equal(want, 0) {
			t.Fatalf("KC=%d not bit-identical to row-stream", kc)
		}
	}
}

// TestGemmBitIdenticalAcrossKC is the determinism contract behind
// SetGemmKC: pinning any autotune candidate (the knob CI and benchmarks
// use to silence the wall-clock autotune) leaves the packed path
// bit-identical to the autotuned run. KC is performance-only; if this
// ever fails, the autotune's run-to-run variance becomes a correctness
// hazard instead of a timing nuisance. The packed kernel is called
// directly: where MatMul takes the SIMD path, KC never reaches it.
func TestGemmBitIdenticalAcrossKC(t *testing.T) {
	defer SetGemmKC(0)
	rng := stats.NewRNG(29)
	m, k, n := 130, 700, 90 // packed band, k spanning several panels
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	packed := func() *Tensor {
		r := New(m, n)
		matMulPackedInto(r.Data(), a.Data(), b.Data(), m, k, n)
		return r
	}
	SetGemmKC(0) // autotuned baseline
	want := packed()
	for _, kc := range gemmKCCandidates {
		SetGemmKC(kc)
		if got := GemmKC(); got != kc {
			t.Fatalf("GemmKC() = %d after SetGemmKC(%d)", got, kc)
		}
		if !packed().Equal(want, 0) {
			t.Fatalf("KC=%d: packed GEMM not bit-identical to autotuned run", kc)
		}
	}
	SetGemmKC(0)
	if kc := GemmKC(); kc <= 0 {
		t.Fatalf("autotuned KC = %d after clearing the pin", kc)
	}
}

// TestGemmKCFromEnv pins the env-override parse: only well-formed
// positive integers pin the panel depth.
func TestGemmKCFromEnv(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"", 0}, {"256", 256}, {"1", 1}, {"0", 0}, {"-8", 0}, {"fast", 0}, {"1e3", 0},
	} {
		if got := gemmKCFromEnv(tc.in); got != tc.want {
			t.Errorf("gemmKCFromEnv(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// BenchmarkGemmParallel256 is the packed parallel kernel the MatMul
// dispatch selects at this size on hosts without the SIMD kernel — the
// floor rule pair with
// BenchmarkGemmRowStream256 (summit-bench -check enforces >=2x at >=4
// workers; on fewer cores the rule is skipped, since the win is
// worker-level parallelism on top of packing).
func BenchmarkGemmParallel256(b *testing.B) {
	rng := stats.NewRNG(1)
	a := Randn(rng, 1, 256, 256)
	bb := Randn(rng, 1, 256, 256)
	dst := New(256, 256)
	b.SetBytes(int64(2 * 256 * 256 * 256 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		matMulPackedInto(dst.Data(), a.Data(), bb.Data(), 256, 256, 256)
	}
}
