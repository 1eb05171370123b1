package machine

import "testing"

// TestSummitMatchesPaperSection2A pins the machine description to §II-A.
func TestSummitMatchesPaperSection2A(t *testing.T) {
	m := Summit()
	if m.Nodes != 4608 {
		t.Errorf("nodes = %d, paper: 4,608 original compute nodes", m.Nodes)
	}
	n := m.Node
	if n.GPUs != 6 {
		t.Errorf("GPUs/node = %d, paper: six V100", n.GPUs)
	}
	if n.CPUCores != 42 {
		t.Errorf("user cores = %d, paper: 42 per node after reservation", n.CPUCores)
	}
	if float64(n.DDR) != 512e9 {
		t.Errorf("DDR = %v, paper: 512 GB", n.DDR)
	}
	if float64(n.NVMe) != 1.6e12 {
		t.Errorf("NVMe = %v, paper: 1.6 TB", n.NVMe)
	}
	// 96 GB of HBM2 per node across 6 GPUs.
	if hbm := float64(n.GPU.HBM) * float64(n.GPUs); hbm != 96e9 {
		t.Errorf("node HBM = %v, paper: 96 GB aggregate", hbm)
	}
	if float64(n.InjectionBW) != 25e9 {
		t.Errorf("injection bw = %v, paper §VI-B: 25 GB/s", n.InjectionBW)
	}
	if float64(m.RingAllreduceBW) != 12.5e9 {
		t.Errorf("ring algorithm bw = %v, paper §VI-B: 12.5 GB/s", m.RingAllreduceBW)
	}
	if float64(m.FS.ReadBW) != 2.5e12 {
		t.Errorf("GPFS read = %v, paper §VI-B: 2.5 TB/s", m.FS.ReadBW)
	}
}

// TestSummitExceedsThreeAIExaops checks "over 3 AI-ExaOps mixed precision
// peak performance" from the introduction.
func TestSummitExceedsThreeAIExaops(t *testing.T) {
	m := Summit()
	if peak := float64(m.Node.GPU.PeakTensor) * float64(m.TotalGPUs()); peak <= 3e18 {
		t.Fatalf("peak tensor = %v, paper: over 3 AI-ExaOps", peak)
	}
	if m.TotalGPUs() != 27648 {
		t.Fatalf("total GPUs = %d", m.TotalGPUs())
	}
}

// TestHighMemNodesMatchPaper checks the Summer-2020 addition: 54 nodes,
// 192 GB HBM2, 2 TB DDR4, 6.4 TB NVMe.
func TestHighMemNodesMatchPaper(t *testing.T) {
	m := Summit()
	if m.HighMemNodes != 54 {
		t.Errorf("high-mem nodes = %d, paper: 54", m.HighMemNodes)
	}
	h := m.HighMemNode
	if hbm := float64(h.GPU.HBM) * float64(h.GPUs); hbm != 192e9 {
		t.Errorf("high-mem HBM = %v, paper: 192 GB", hbm)
	}
	if float64(h.DDR) != 2e12 {
		t.Errorf("high-mem DDR = %v, paper: 2 TB", h.DDR)
	}
	if float64(h.NVMe) != 6.4e12 {
		t.Errorf("high-mem NVMe = %v, paper: 6.4 TB", h.NVMe)
	}
}

func TestV100Rates(t *testing.T) {
	g := V100()
	if float64(g.PeakTensor) != 125e12 {
		t.Errorf("V100 tensor peak = %v", g.PeakTensor)
	}
	if g.PeakFP64 >= g.PeakFP32 || g.PeakFP32 >= g.PeakTensor {
		t.Error("precision peaks not ordered")
	}
	hm := V100HighMem()
	if float64(hm.HBM) != 32e9 {
		t.Errorf("32GB V100 HBM = %v", hm.HBM)
	}
}

func TestAggregateNVMe(t *testing.T) {
	m := Summit()
	if got := float64(m.Node.NVMeReadBW) * float64(m.Nodes); got < 27e12 {
		t.Fatalf("aggregate NVMe = %v, paper: over 27 TB/s", got)
	}
}
