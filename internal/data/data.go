// Package data provides the deterministic synthetic datasets that stand in
// for the paper's gated inputs (ImageNet, CAM5 climate imagery, SMILES
// compound corpora, gravitational waveforms), plus the sharding and
// shuffling machinery of distributed data-parallel input pipelines.
//
// Every sample is generated on the fly from (seed, index), so arbitrarily
// large datasets exist without storage, while record sizes — the quantity
// the paper's §VI-B I/O analysis reasons about — are modelled explicitly.
package data

import (
	"fmt"
	"math"

	"summitscale/internal/stats"
	"summitscale/internal/tensor"
	"summitscale/internal/units"
)

// ImageSample is one labelled image.
type ImageSample struct {
	X     *tensor.Tensor // (C, H, W)
	Label int
}

// ImageSource generates labelled images by index.
type ImageSource interface {
	Len() int
	Classes() int
	Sample(i int) ImageSample
	// BytesPerSample is the on-disk record size the storage model charges
	// for reading one sample.
	BytesPerSample() units.Bytes
}

// SyntheticImages is an ImageNet-like source: each class has a
// characteristic spatial frequency and orientation texture, with additive
// noise. Deterministic in (Seed, index).
type SyntheticImages struct {
	Seed     uint64
	N        int
	NumClass int
	Channels int
	Size     int
	// RecordBytes models the stored (compressed) record size. ImageNet
	// JPEGs average ~110 KB; the default is set by NewSyntheticImages.
	RecordBytes units.Bytes
}

// NewSyntheticImages creates a source with ImageNet-like record sizes.
func NewSyntheticImages(seed uint64, n, classes, channels, size int) *SyntheticImages {
	return &SyntheticImages{
		Seed: seed, N: n, NumClass: classes, Channels: channels, Size: size,
		RecordBytes: 110 * units.KB,
	}
}

// Len implements ImageSource.
func (s *SyntheticImages) Len() int { return s.N }

// Classes implements ImageSource.
func (s *SyntheticImages) Classes() int { return s.NumClass }

// BytesPerSample implements ImageSource.
func (s *SyntheticImages) BytesPerSample() units.Bytes { return s.RecordBytes }

// Sample implements ImageSource.
func (s *SyntheticImages) Sample(i int) ImageSample {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("data: sample %d of %d", i, s.N))
	}
	rng := stats.NewRNG(s.Seed*0x9e3779b9 + uint64(i))
	label := i % s.NumClass
	img := tensor.New(s.Channels, s.Size, s.Size)
	// Class-dependent texture: frequency and orientation vary per class.
	freq := 1 + float64(label%4)
	theta := float64(label) * math.Pi / float64(s.NumClass)
	cs, sn := math.Cos(theta), math.Sin(theta)
	for c := 0; c < s.Channels; c++ {
		phase := float64(c) * 0.5
		for y := 0; y < s.Size; y++ {
			for x := 0; x < s.Size; x++ {
				u := (cs*float64(x) + sn*float64(y)) / float64(s.Size)
				v := math.Sin(2*math.Pi*freq*u+phase) + rng.NormFloat64()*0.3
				img.Set(v, c, y, x)
			}
		}
	}
	return ImageSample{X: img, Label: label}
}

// ClimateImages is the CAM5-like source for the Kurth et al. study: fields
// either contain a cyclone-like vortex blob (label 1) or only smooth
// background flow (label 0). Records are large multi-channel scientific
// fields rather than compressed photos.
type ClimateImages struct {
	Seed     uint64
	N        int
	Channels int
	Size     int
}

// NewClimateImages creates the source. Record size models 16 float32
// channels at 768x1152 scaled to the configured size.
func NewClimateImages(seed uint64, n, channels, size int) *ClimateImages {
	return &ClimateImages{Seed: seed, N: n, Channels: channels, Size: size}
}

// Len implements ImageSource.
func (s *ClimateImages) Len() int { return s.N }

// Classes implements ImageSource.
func (s *ClimateImages) Classes() int { return 2 }

// BytesPerSample implements ImageSource: float32 per pixel per channel.
func (s *ClimateImages) BytesPerSample() units.Bytes {
	return units.Bytes(4 * s.Channels * s.Size * s.Size)
}

// Sample implements ImageSource. Every value is the expression a
// pixel-by-pixel loop would compute, and the random draws come in the
// same order: kx, ky, one normal variate per pixel in (channel, row,
// column) order, then the vortex centre. The explicit float64
// conversions round each product on its own, so no target fuses one into
// a multiply-add and every architecture computes amd64's bits.
func (s *ClimateImages) Sample(i int) ImageSample {
	rng := stats.NewRNG(s.Seed*0x51ed2701 + uint64(i))
	label := i % 2
	n := s.Size
	img := tensor.New(s.Channels, n, n)
	dst := img.Data()
	// Smooth large-scale background flow: a sine across the columns plus
	// a cosine down the rows, each tabled once per sample rather than
	// computed once per pixel.
	kx := 1 + float64(rng.Float64())
	ky := 1 + float64(rng.Float64())
	trig := make([]float64, 2*n)
	colSin, rowCos := trig[:n], trig[n:]
	for x := range colSin {
		colSin[x] = float64(0.5 * math.Sin(kx*float64(x)/float64(n)*2*math.Pi))
	}
	for y := range rowCos {
		rowCos[y] = float64(0.5 * math.Cos(ky*float64(y)/float64(n)*2*math.Pi))
	}
	for c := 0; c < s.Channels; c++ {
		for y, cy := range rowCos {
			row := dst[(c*n+y)*n:][:len(colSin)]
			for x, sx := range colSin {
				row[x] = sx + cy + float64(rng.NormFloat64()*0.1)
			}
		}
	}
	if label == 1 {
		// Inject a compact vortex: a Gaussian bump with rotational signature
		// across channels. The bump is tabled once for every channel.
		cx := float64(rng.Intn(n))
		cy := float64(rng.Intn(n))
		sigma := float64(n) / 6
		bump := make([]float64, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				dx, dy := float64(x)-cx, float64(y)-cy
				r2 := float64(dx*dx) + float64(dy*dy)
				bump[y*n+x] = math.Exp(-r2 / (2 * sigma * sigma))
			}
		}
		for c := 0; c < s.Channels; c++ {
			sign := 1.0
			if c%2 == 1 {
				sign = -1
			}
			plane := dst[c*n*n:][:len(bump)]
			for j, e := range bump {
				plane[j] += float64(sign * 2 * e)
			}
		}
	}
	return ImageSample{X: img, Label: label}
}

// BatchImages assembles samples[lo:hi] of src into an (n, C, H, W) tensor
// and label slice, in the order given by idx.
func BatchImages(src ImageSource, idx []int) (*tensor.Tensor, []int) {
	if len(idx) == 0 {
		panic("data: empty batch")
	}
	first := src.Sample(idx[0])
	c, h, w := first.X.Dim(0), first.X.Dim(1), first.X.Dim(2)
	out := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	per := c * h * w
	copy(out.Data()[:per], first.X.Data())
	labels[0] = first.Label
	for i := 1; i < len(idx); i++ {
		s := src.Sample(idx[i])
		copy(out.Data()[i*per:(i+1)*per], s.X.Data())
		labels[i] = s.Label
	}
	return out, labels
}
