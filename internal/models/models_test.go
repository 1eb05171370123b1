package models

import (
	"math"
	"testing"

	"summitscale/internal/units"
)

// TestGradientMessageSizesMatchPaper anchors the two sizes §VI-B quotes:
// "the per device allreduce message size for the ResNet50 and BERT-large
// models is about 100MB and 1.4 GB".
func TestGradientMessageSizesMatchPaper(t *testing.T) {
	r := ResNet50().GradientBytes()
	if math.Abs(float64(r)-100e6)/100e6 > 0.05 {
		t.Errorf("ResNet-50 gradient = %v, paper ~100 MB", r)
	}
	b := BERTLarge().GradientBytes()
	if math.Abs(float64(b)-1.4e9)/1.4e9 > 0.05 {
		t.Errorf("BERT-large gradient = %v, paper ~1.4 GB", b)
	}
}

// catalogue lists every model constructor.
func catalogue() []ModelSpec {
	return []ModelSpec{
		ResNet50(), BERTLarge(), DeepLabV3Plus(), FCDenseNet(), WaveNetGW(),
		PIGAN(), CVAE(), CosmoFlow(), DimeNetPP(),
	}
}

func TestCatalogueComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range catalogue() {
		if seen[m.Name] {
			t.Fatalf("duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		if m.Params <= 0 || m.TrainFlopsPerSample <= 0 || m.SingleGPUThroughput <= 0 ||
			m.PerGPUBatch <= 0 || m.RecordBytes <= 0 {
			t.Fatalf("model %q has non-positive fields: %+v", m.Name, m)
		}
		if m.GradBytesPerParam != 2 && m.GradBytesPerParam != 4 {
			t.Fatalf("model %q has grad width %d", m.Name, m.GradBytesPerParam)
		}
	}
	// The §IV-B studies and the MLPerf HPC workloads must be represented.
	for _, name := range []string{"ResNet-50", "BERT-large", "DeepLabv3+",
		"FC-DenseNet", "WaveNet-GW", "PI-GAN", "CVAE", "CosmoFlow", "DimeNet++"} {
		if !seen[name] {
			t.Errorf("catalogue missing %q", name)
		}
	}
}

// sustainedFlopsPerGPU returns the per-device rate a spec implies.
func sustainedFlopsPerGPU(m ModelSpec) float64 {
	return m.SingleGPUThroughput * float64(m.TrainFlopsPerSample)
}

func TestSustainedRatesBelowPeak(t *testing.T) {
	// No model may claim more than the V100's 125 TF/s tensor peak.
	for _, m := range catalogue() {
		if got := sustainedFlopsPerGPU(m); got > 125e12 {
			t.Errorf("%s sustains %v > V100 peak", m.Name, got)
		}
	}
}

// TestSustainedRatesMatchStudies checks the per-GPU sustained rates implied
// by the §IV-B papers: Kurth 1.13 EF / 27,360 GPUs ≈ 41 TF/s; Laanait
// 2.15 EF / 27,600 ≈ 78 TF/s; Blanchard 603 PF / 24,192 ≈ 25 TF/s.
func TestSustainedRatesMatchStudies(t *testing.T) {
	cases := []struct {
		model ModelSpec
		want  float64 // TF/s per GPU
		tol   float64
	}{
		{DeepLabV3Plus(), 41e12, 0.1},
		{FCDenseNet(), 78e12, 0.1},
		{BERTLarge(), 25e12, 0.1},
		{PIGAN(), 43.7e12, 0.1},
	}
	for _, c := range cases {
		got := sustainedFlopsPerGPU(c.model)
		if math.Abs(got-c.want)/c.want > c.tol {
			t.Errorf("%s sustains %v, want ~%v", c.model.Name, got, c.want)
		}
	}
}

func TestStepComputeTime(t *testing.T) {
	m := ResNet50()
	want := float64(m.PerGPUBatch) / m.SingleGPUThroughput
	if got := float64(m.StepComputeTime()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("step compute = %v, want %v", got, want)
	}
}

func TestFP16ModelsHalveWire(t *testing.T) {
	d := DeepLabV3Plus()
	if d.GradientBytes() != units.Bytes(d.Params*2) {
		t.Fatal("fp16 gradient width wrong")
	}
}

func TestStringNonEmpty(t *testing.T) {
	for _, m := range catalogue() {
		if m.String() == "" {
			t.Fatal("empty String()")
		}
	}
}
