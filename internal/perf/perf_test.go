package perf

import (
	"math"
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/models"
	"summitscale/internal/netsim"
	"summitscale/internal/storage"
	"summitscale/internal/units"
)

func TestAnalyzeSingleNodeNoComm(t *testing.T) {
	j := SummitJob(models.ResNet50(), 1)
	j.GPUsPerNode = 1
	b := Analyze(j)
	if b.Comm != 0 || b.ExposedComm != 0 {
		t.Fatalf("single-device job has comm: %+v", b)
	}
	want := float64(j.Model.PerGPUBatch) / j.Model.SingleGPUThroughput
	if math.Abs(float64(b.Compute)-want) > 1e-12 {
		t.Fatalf("compute = %v", b.Compute)
	}
}

func TestCommGrowsWithGradientSize(t *testing.T) {
	small := SummitJob(models.ResNet50(), 512)
	large := SummitJob(models.BERTLarge(), 512)
	if Analyze(large).Comm <= Analyze(small).Comm {
		t.Fatal("BERT-large should communicate more than ResNet-50")
	}
}

// TestBERTCommBound reproduces the §VI-B conclusion: BERT-large's ~110 ms
// allreduce is comparable to its per-batch compute, so data-parallel
// training becomes communication-bound, while ResNet-50's 8 ms hides
// easily.
func TestBERTCommBound(t *testing.T) {
	bert := SummitJob(models.BERTLarge(), 4032)
	bb := Analyze(bert)
	ratioBert := float64(bb.Comm) / float64(bb.Compute)
	resnet := SummitJob(models.ResNet50(), 4608)
	rb := Analyze(resnet)
	ratioRes := float64(rb.Comm) / float64(rb.Compute)
	if ratioBert < 0.5 {
		t.Fatalf("BERT comm/compute = %v, should be near or above 1", ratioBert)
	}
	if ratioRes > 0.25 {
		t.Fatalf("ResNet comm/compute = %v, should be small", ratioRes)
	}
	if ratioBert <= ratioRes {
		t.Fatal("BERT should be more comm-bound than ResNet")
	}
}

func TestEfficiencyDecreasesWithScale(t *testing.T) {
	j := SummitJob(models.BERTLarge(), 1)
	j.OverlapComm = 0.5
	j.JitterPerDoubling = 0.005
	pts := ScalingCurve(j, []int{1, 16, 256, 4032})
	for i := 1; i < len(pts); i++ {
		if pts[i].Efficiency >= pts[i-1].Efficiency {
			t.Fatalf("efficiency not decreasing: %+v", pts)
		}
	}
	if pts[0].Efficiency != 1 {
		t.Fatalf("base efficiency = %v", pts[0].Efficiency)
	}
	// Throughput must still increase (scaling is sub-linear, not negative).
	for i := 1; i < len(pts); i++ {
		if pts[i].Throughput <= pts[i-1].Throughput {
			t.Fatalf("throughput not increasing: %+v", pts)
		}
	}
}

func TestGradLagHidesCommunication(t *testing.T) {
	base := SummitJob(models.DeepLabV3Plus(), 4560)
	base.OverlapComm = 0
	lag := base
	lag.GradLag = true
	bb, lb := Analyze(base), Analyze(lag)
	if lb.ExposedComm >= bb.ExposedComm {
		t.Fatalf("grad lag did not reduce exposed comm: %v vs %v", lb.ExposedComm, bb.ExposedComm)
	}
	// DeepLab's comm fits entirely under its compute.
	if lb.ExposedComm != 0 {
		t.Fatalf("DeepLab comm should hide fully under grad lag: %v", lb.ExposedComm)
	}
}

func TestAccumulationAmortizesComm(t *testing.T) {
	j := SummitJob(models.BERTLarge(), 4032)
	j.OverlapComm = 0
	one := Throughput(j)
	j.AccumSteps = 16
	sixteen := Throughput(j)
	if sixteen <= one {
		t.Fatalf("gradient accumulation should raise throughput: %v vs %v", sixteen, one)
	}
}

func TestModelParallelShrinksRing(t *testing.T) {
	j := SummitJob(models.PIGAN(), 4584)
	j.OverlapComm = 0
	full := Analyze(j).Comm
	j.ModelParallelWays = 8
	sharded := Analyze(j).Comm
	if sharded >= full {
		t.Fatalf("model parallelism should shrink allreduce: %v vs %v", sharded, full)
	}
}

func TestGPFSThrottlesResNetAtScale(t *testing.T) {
	j := SummitJob(models.ResNet50(), 4608)
	j.Store = storage.NewGPFS()
	gp := Throughput(j)
	j.Store = storage.NewNVMe()
	nv := Throughput(j)
	if gp >= nv {
		t.Fatal("GPFS-fed training should be slower than NVMe-fed")
	}
	// The paper's ratio: GPFS delivers 2.5 of the needed 20 TB/s, so
	// throughput drops to about an eighth.
	ratio := gp / nv
	if ratio > 0.2 || ratio < 0.08 {
		t.Fatalf("GPFS/NVMe throughput ratio = %v, want ~0.125", ratio)
	}
}

func TestJitterInflatesSteps(t *testing.T) {
	j := SummitJob(models.ResNet50(), 4096)
	j.JitterPerDoubling = 0.01
	b := Analyze(j)
	if math.Abs(b.Jitter-(1+0.01*12)) > 1e-9 {
		t.Fatalf("jitter = %v", b.Jitter)
	}
	j.JitterPerDoubling = 0
	if Analyze(j).Jitter != 1 {
		t.Fatal("zero jitter config inflated")
	}
}

func TestSustainedFlopsScale(t *testing.T) {
	j := SummitJob(models.DeepLabV3Plus(), 4560)
	j.GradLag = true
	f := SustainedFlops(j)
	// Kurth: 1.13 EF peak at 4560 nodes. Without the jitter/straggler terms
	// the model should land near the peak figure (within 25%).
	if math.Abs(float64(f)-1.13e18)/1.13e18 > 0.25 {
		t.Fatalf("DeepLab sustained = %v, paper peak 1.13 EF", f)
	}
}

func TestParallelEfficiencyHelper(t *testing.T) {
	j := SummitJob(models.WaveNetGW(), 8)
	j.OverlapComm = 0.3
	eff := ParallelEfficiency(j, 8, 1024)
	if eff <= 0 || eff >= 1 {
		t.Fatalf("efficiency = %v", eff)
	}
}

func TestBreakdownString(t *testing.T) {
	if Analyze(SummitJob(models.ResNet50(), 64)).String() == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestFixedOverheadCounts(t *testing.T) {
	j := SummitJob(models.CVAE(), 4)
	base := Analyze(j).Total
	j.FixedOverhead = units.Seconds(0.5)
	if got := Analyze(j).Total; got <= base+0.49 {
		t.Fatalf("fixed overhead not applied: %v vs %v", got, base)
	}
}

// TestAnalyzeCommMatchesHierarchicalFabric: the step model's communication
// term must agree with netsim's two-level fabric model for the single-rail
// full-gradient configuration both encode.
func TestAnalyzeCommMatchesHierarchicalFabric(t *testing.T) {
	j := SummitJob(models.ResNet50(), 512)
	b := Analyze(j)
	h := netsim.HierarchicalFabricFor(machine.Summit())
	h.Rails = 1 // perf.Analyze models a single inter-node ring
	want := h.AllReduce(512, j.Model.GradientBytes())
	if rel := math.Abs(float64(b.Comm)-float64(want)) / float64(want); rel > 1e-9 {
		t.Fatalf("perf comm %v vs netsim hierarchical %v (rel %v)", b.Comm, want, rel)
	}
}
