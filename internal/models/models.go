// Package models catalogues the deep-learning architectures appearing in
// the paper's scale-out studies (§IV-B) and workflow case studies (§V),
// with the accounting the performance model needs: parameter counts,
// gradient wire sizes, training FLOPs per sample, input record sizes, and
// calibrated single-GPU throughputs.
//
// Two of these figures are anchored directly by the paper's §VI-B:
// ResNet-50's ~100 MB and BERT-large's ~1.4 GB per-device allreduce
// message (fp32 gradients), which at Summit's 12.5 GB/s ring algorithm
// bandwidth give ~8 ms and ~110 ms. Single-GPU throughputs are calibrated
// so that full-Summit data-parallel ResNet-50 requires ~20 TB/s of
// aggregate read bandwidth, the paper's headline I/O figure.
package models

import (
	"fmt"

	"summitscale/internal/units"
)

// ModelSpec describes one architecture for the performance model.
type ModelSpec struct {
	Name   string
	Params int64
	// GradBytesPerParam is the allreduce wire size per parameter: 4 for
	// fp32 gradient exchange, 2 for fp16.
	GradBytesPerParam int
	// TrainFlopsPerSample counts forward+backward mixed-precision
	// operations per training sample.
	TrainFlopsPerSample units.Flops
	// RecordBytes is the size of one input record as read from storage.
	RecordBytes units.Bytes
	// PerGPUBatch is the customary per-device micro-batch.
	PerGPUBatch int
	// SingleGPUThroughput is the calibrated samples/s of one V100 on
	// in-memory data (the §VI-B estimation procedure).
	SingleGPUThroughput float64
}

// GradientBytes returns the per-device allreduce message size.
func (m ModelSpec) GradientBytes() units.Bytes {
	return units.Bytes(m.Params * int64(m.GradBytesPerParam))
}

// StepComputeTime returns the pure-compute time of one micro-batch step.
func (m ModelSpec) StepComputeTime() units.Seconds {
	return units.Seconds(float64(m.PerGPUBatch) / m.SingleGPUThroughput)
}

// String summarizes the spec.
func (m ModelSpec) String() string {
	return fmt.Sprintf("%s: %.1fM params, grad %v, %v/sample, %.0f samples/s/GPU",
		m.Name, float64(m.Params)/1e6, m.GradientBytes(), m.TrainFlopsPerSample,
		m.SingleGPUThroughput)
}

// ResNet50 is the §VI-B reference image classifier. 25.56 M parameters
// give the paper's ~100 MB fp32 gradient message. The 500 KB decoded
// record and 1450 samples/s are calibrated so full Summit (27,648 GPUs)
// requires ≈20 TB/s aggregate read bandwidth.
func ResNet50() ModelSpec {
	return ModelSpec{
		Name:                "ResNet-50",
		Params:              25_560_000,
		GradBytesPerParam:   4,
		TrainFlopsPerSample: 23 * units.GFlop,
		RecordBytes:         500 * units.KB,
		PerGPUBatch:         256,
		SingleGPUThroughput: 1450,
	}
}

// BERTLarge is the §VI-B reference language model: ~345 M parameters give
// the paper's ~1.4 GB fp32 gradient message. Blanchard et al. pretrained a
// BERT of this class on SMILES compound strings.
func BERTLarge() ModelSpec {
	return ModelSpec{
		Name:                "BERT-large",
		Params:              345_000_000,
		GradBytesPerParam:   4,
		TrainFlopsPerSample: 260 * units.GFlop, // ~6·params·tokens at seq 128
		RecordBytes:         512,               // tokenized compound record
		PerGPUBatch:         8,
		SingleGPUThroughput: 96, // 25 TF/s sustained (Blanchard's 603 PF / 24,192 GPUs)
	}
}

// DeepLabV3Plus is Kurth et al.'s climate segmentation network.
// Mixed-precision training with fp16 gradient exchange; records are
// 16-channel float32 CAM5 crops.
func DeepLabV3Plus() ModelSpec {
	return ModelSpec{
		Name:                "DeepLabv3+",
		Params:              43_000_000,
		GradBytesPerParam:   2,
		TrainFlopsPerSample: 3.1 * units.TFlop, // dense prediction on 768x1152x16 fields
		RecordBytes:         units.Bytes(4 * 16 * 768 * 1152),
		PerGPUBatch:         2,
		SingleGPUThroughput: 13.3, // => ~41 TF/s/GPU sustained; 27,360 GPUs => 1.13 EF
	}
}

// FCDenseNet is Laanait et al.'s electron-density inverse-problem network,
// whose custom gradient-reduction pipeline sustained 2.15 EF (≈78 TF/s per
// GPU) at batch 27,600 on 4600 nodes.
func FCDenseNet() ModelSpec {
	return ModelSpec{
		Name:                "FC-DenseNet",
		Params:              220_000_000,
		GradBytesPerParam:   2,
		TrainFlopsPerSample: 7.8 * units.TFlop,
		RecordBytes:         units.Bytes(4 * 512 * 512),
		PerGPUBatch:         1,
		SingleGPUThroughput: 10, // => 78 TF/s/GPU sustained
	}
}

// WaveNetGW is Khan et al.'s modified WaveNet for black-hole parameter
// inference, trained with LAMB from 8 to 1024 nodes at 80% efficiency.
func WaveNetGW() ModelSpec {
	return ModelSpec{
		Name:                "WaveNet-GW",
		Params:              23_000_000,
		GradBytesPerParam:   4,
		TrainFlopsPerSample: 12 * units.GFlop,
		RecordBytes:         units.Bytes(4 * 8192), // one-second strain segment
		PerGPUBatch:         64,
		SingleGPUThroughput: 2600,
	}
}

// PIGAN is Yang et al.'s physics-informed GAN for stochastic PDEs; batch
// size limits forced model parallelism in addition to data parallelism.
// Params below are per model-parallel shard.
func PIGAN() ModelSpec {
	return ModelSpec{
		Name:                "PI-GAN",
		Params:              65_000_000,
		GradBytesPerParam:   2,
		TrainFlopsPerSample: 1.9 * units.TFlop,
		RecordBytes:         units.Bytes(4 * 4096),
		PerGPUBatch:         4,
		SingleGPUThroughput: 23, // => ~43.7 TF/s/GPU: 1.2 EF across 27,504 GPUs
	}
}

// CVAE is the convolutional variational autoencoder used by the
// DeepDriveMD-style steering workflows (Casalino, Amaro, Trifan).
func CVAE() ModelSpec {
	return ModelSpec{
		Name:                "CVAE",
		Params:              4_700_000,
		GradBytesPerParam:   4,
		TrainFlopsPerSample: 1.5 * units.GFlop,
		RecordBytes:         units.Bytes(4 * 24 * 24), // contact-map crop
		PerGPUBatch:         128,
		SingleGPUThroughput: 9000,
	}
}

// CosmoFlow is the MLPerf HPC cosmology benchmark network (Farrell et
// al.): a small 3D CNN regressing four cosmological parameters from
// 128^3x4 dark-matter density volumes. The record dominates the math —
// ~16.8 MB of int16-quantized voxels per sample against ~8.4 M
// parameters — which is what makes it the suite's storage stressor.
func CosmoFlow() ModelSpec {
	return ModelSpec{
		Name:                "CosmoFlow",
		Params:              8_400_000,
		GradBytesPerParam:   4,
		TrainFlopsPerSample: 140 * units.GFlop,
		RecordBytes:         units.Bytes(2 * 4 * 128 * 128 * 128),
		PerGPUBatch:         4,
		SingleGPUThroughput: 190, // => ~27 TF/s/GPU sustained mixed precision
	}
}

// DimeNetPP is the MLPerf HPC OpenCatalyst workload's network (DimeNet++
// in Farrell et al.): a directional message-passing GNN predicting
// per-atom forces for catalyst relaxations. Records are small molecular
// graphs, so — opposite to CosmoFlow — compute and gradient exchange
// dominate while storage idles.
func DimeNetPP() ModelSpec {
	return ModelSpec{
		Name:                "DimeNet++",
		Params:              1_800_000,
		GradBytesPerParam:   4,
		TrainFlopsPerSample: 110 * units.GFlop,
		RecordBytes:         units.Bytes(4 * 3 * 80 * 24), // ~80-atom graph: positions + edge features
		PerGPUBatch:         8,
		SingleGPUThroughput: 75, // GNN gather/scatter sustains far below dense-CNN rates
	}
}
