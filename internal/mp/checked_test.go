package mp

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// runChecked runs the checked allreduce on a p-rank world where each rank
// contributes rank-dependent data, optionally tampering, and returns each
// rank's (result, error).
func runChecked(p, n int, tamper TamperFunc) ([][]float64, []error) {
	w := NewWorld(p)
	outs := make([][]float64, p)
	errs := make([]error, p)
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		out, err := c.AllReduceRingChecked(checkedData(c.Rank(), n), tamper)
		mu.Lock()
		outs[c.Rank()], errs[c.Rank()] = out, err
		mu.Unlock()
	})
	return outs, errs
}

// checkedData is rank's contribution to the checked-ring tests.
func checkedData(rank, n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(rank+1) * (1 + 0.01*float64(i))
	}
	return data
}

// guardSlotRing is the unenforced guard-slot reduction the checked ring
// must match bit for bit whatever its verdict: append the local sum,
// tamper with the payload, ring-reduce the n+1 elements, drop the guard.
func guardSlotRing(p, n int, tamper TamperFunc) [][]float64 {
	w := NewWorld(p)
	outs := make([][]float64, p)
	w.Run(func(c *Comm) {
		data := checkedData(c.Rank(), n)
		var local float64
		for _, v := range data {
			local += v
		}
		guarded := append(data, local)
		if tamper != nil {
			tamper(c.Rank(), guarded[:n])
		}
		outs[c.Rank()] = c.AllReduceRing(guarded)[:n]
	})
	return outs
}

// requireBitEqual fails unless every rank's payload matches the
// guard-slot reference bit for bit (NaN payloads included).
func requireBitEqual(t *testing.T, got, want [][]float64) {
	t.Helper()
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rank %d: payload of %d elements, want %d", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
				t.Fatalf("rank %d elem %d: checked %v vs guard-slot ring %v", r, i, got[r][i], want[r][i])
			}
		}
	}
}

func TestCheckedAllReduceMatchesPlain(t *testing.T) {
	const p, n = 5, 37
	outs, errs := runChecked(p, n, nil)
	// Reference: plain ring allreduce of the same contributions.
	w := NewWorld(p)
	var ref []float64
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		out := c.AllReduceRing(checkedData(c.Rank(), n))
		if c.Rank() == 0 {
			mu.Lock()
			ref = out
			mu.Unlock()
		}
	})
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: unexpected guard trip: %v", r, errs[r])
		}
		if len(outs[r]) != n {
			t.Fatalf("rank %d: got %d elements, want %d", r, len(outs[r]), n)
		}
		// The guard element shifts the ring's chunk boundaries, so the
		// checked reduction may associate sums differently than the plain
		// one — bit-equality holds within a world, not across algorithms.
		for i := range ref {
			diff := math.Abs(outs[r][i] - ref[i])
			if diff > 1e-12*math.Max(1, math.Abs(ref[i])) {
				t.Fatalf("rank %d elem %d: checked %v vs plain %v", r, i, outs[r][i], ref[i])
			}
		}
		for i := range ref {
			if outs[0][i] != outs[r][i] {
				t.Fatalf("rank %d elem %d disagrees with rank 0: %v vs %v", r, i, outs[r][i], outs[0][i])
			}
		}
	}
}

// A single flipped mantissa bit on one rank's payload must trip the guard
// on EVERY rank — detection is global because the reduced vector is. The
// tampered payload still comes back, exactly as the unenforced guard-slot
// ring reduces it.
func TestCheckedAllReduceDetectsBitFlip(t *testing.T) {
	const p, n = 4, 64
	tamper := func(rank int, data []float64) {
		if rank == 2 {
			bits := math.Float64bits(data[17])
			data[17] = math.Float64frombits(bits ^ (1 << 51)) // high mantissa bit
		}
	}
	outs, errs := runChecked(p, n, tamper)
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d did not detect the flip", r)
		}
		if !errors.Is(err, ErrABFTMismatch) || errors.Is(err, ErrABFTNonFinite) {
			t.Fatalf("rank %d wrong verdict: %v", r, err)
		}
	}
	requireBitEqual(t, outs, guardSlotRing(p, n, tamper))
}

// A flip into the exponent that lands a NaN is reported as non-finite
// rather than as a sum mismatch (NaN comparisons would otherwise let it
// sail through a naive |a-b| > tol check).
func TestCheckedAllReduceDetectsNaN(t *testing.T) {
	tamper := func(rank int, data []float64) {
		if rank == 0 {
			data[3] = math.NaN()
		}
	}
	outs, errs := runChecked(3, 16, tamper)
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d accepted a NaN payload", r)
		}
		if !errors.Is(err, ErrABFTNonFinite) || errors.Is(err, ErrABFTMismatch) {
			t.Fatalf("rank %d wrong verdict: %v", r, err)
		}
	}
	requireBitEqual(t, outs, guardSlotRing(3, 16, tamper))
}

// The guard must tolerate benign reassociation error: large vectors with
// mixed magnitudes reduce in different orders on different chunk
// boundaries, and none of that may trip the checksum.
func TestCheckedAllReduceToleratesReassociation(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		_, errs := runChecked(p, 1023, nil)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("p=%d rank %d: false positive: %v", p, r, err)
			}
		}
	}
}
