package data

import (
	"fmt"
	"math"
	"testing"

	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// climatePixelwise is ClimateImages.Sample computed pixel by pixel, each
// pixel evaluating its own sine, cosine and vortex exponential, as the
// generator did before it tabled them. Every product is rounded on its
// own, as in Sample, so the two agree on any target.
func climatePixelwise(s *ClimateImages, i int) ImageSample {
	rng := stats.NewRNG(s.Seed*0x51ed2701 + uint64(i))
	label := i % 2
	img := tensor.New(s.Channels, s.Size, s.Size)
	kx := 1 + float64(rng.Float64())
	ky := 1 + float64(rng.Float64())
	for c := 0; c < s.Channels; c++ {
		for y := 0; y < s.Size; y++ {
			for x := 0; x < s.Size; x++ {
				v := float64(0.5*math.Sin(kx*float64(x)/float64(s.Size)*2*math.Pi)) +
					float64(0.5*math.Cos(ky*float64(y)/float64(s.Size)*2*math.Pi)) +
					float64(rng.NormFloat64()*0.1)
				img.Set(v, c, y, x)
			}
		}
	}
	if label == 1 {
		cx := float64(rng.Intn(s.Size))
		cy := float64(rng.Intn(s.Size))
		sigma := float64(s.Size) / 6
		for c := 0; c < s.Channels; c++ {
			sign := 1.0
			if c%2 == 1 {
				sign = -1
			}
			for y := 0; y < s.Size; y++ {
				for x := 0; x < s.Size; x++ {
					dx, dy := float64(x)-cx, float64(y)-cy
					r2 := float64(dx*dx) + float64(dy*dy)
					img.Set(img.At(c, y, x)+float64(sign*2*math.Exp(-r2/(2*sigma*sigma))), c, y, x)
				}
			}
		}
	}
	return ImageSample{X: img, Label: label}
}

// sameBits fails t unless got and want hold the same float64 bit
// patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestClimateImagesMatchPixelwise: Sample, which tables the background
// and the vortex once per sample, and BatchImages give the
// pixel-by-pixel generator's bits at 1 to 3 channels, for both labels, at
// train-cnn's size and an odd one.
func TestClimateImagesMatchPixelwise(t *testing.T) {
	for _, size := range []int{8, 7} {
		for ch := 1; ch <= 3; ch++ {
			s := NewClimateImages(uint64(10*size+ch), 64, ch, size)
			idx := []int{4, 9, 0, 63, 22, 17}
			var want []float64
			for _, i := range idx {
				ref := climatePixelwise(s, i)
				got := s.Sample(i)
				name := fmt.Sprintf("size %d channels %d sample %d", size, ch, i)
				if got.Label != ref.Label {
					t.Fatalf("%s: label %d, want %d", name, got.Label, ref.Label)
				}
				sameBits(t, name, got.X.Data(), ref.X.Data())
				want = append(want, ref.X.Data()...)
			}
			x, labels := BatchImages(s, idx)
			sameBits(t, fmt.Sprintf("size %d channels %d batch", size, ch), x.Data(), want)
			for k, i := range idx {
				if labels[k] != i%2 {
					t.Fatalf("batch label %d is %d, want %d", k, labels[k], i%2)
				}
			}
		}
	}
}
