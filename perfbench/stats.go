package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"summitscale/internal/stats"
)

// minTailSamples is the op count a run needs before it reports p90: ten
// samples must lie beyond the percentile for it to be more than the
// run's few slowest ops.
const minTailSamples = 100

// median returns the 50th percentile of xs.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// tailP90 returns the 90th percentile of xs when there are at least
// minTailSamples of them.
func tailP90(xs []float64) (float64, bool) {
	if len(xs) < minTailSamples {
		return 0, false
	}
	return stats.Percentile(xs, 90), true
}

// itemsPerSecond is a throughput over one stretch of wall time.
func itemsPerSecond(items int, wall time.Duration) float64 {
	return float64(items) / wall.Seconds()
}

// medianOpRate is items_per_s: the items one op completes per second at
// the median op time. A whole-phase rate also adds up every op's tail,
// which is where host steal lands; on 2 shared vCPUs it spread two to
// three times wider across runs than this did.
func medianOpRate(itemsPerOp int, opMs []float64) float64 {
	return float64(itemsPerOp) / (median(opMs) / 1e3)
}

// tracedBlock says whether op i of a --trace 1 run is traced: ops go in
// alternating blocks of size, untraced first, so both halves see the
// same warm state and drift.
func tracedBlock(i, size int) bool { return (i/size)%2 == 1 }

// lossHash fingerprints a loss trajectory bit for bit, so two runs at one
// seed can be compared from their output.
func lossHash(losses []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range losses {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// finite reports whether a loss is usable.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
