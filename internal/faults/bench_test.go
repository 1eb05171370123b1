package faults

import (
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/units"
)

// BenchmarkSweep times RS1's Kurth sweep alone: the 33 intervals around
// the Young/Daly optimum replayed against RS1's 160 failure sets, which
// are drawn once, outside the timer.
func BenchmarkSweep(b *testing.B) {
	rs := rs1Shapes[0]
	jp := ParamsFor(machine.Summit(), rs.nodes)
	daly := DalyInterval(rs.shape.CheckpointCost, jp.SystemMTBF())
	grid := GeometricIntervals(daly/8, daly*8, 33)
	sets := make([][]units.Seconds, 160)
	for i := range sets {
		sets[i] = jp.FailureTimes(20220523+uint64(i), 2*rs.shape.TotalWork)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sweep(rs.shape, grid, sets)
	}
}
