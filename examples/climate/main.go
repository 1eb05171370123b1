// Climate: a miniature of Kurth et al.'s Gordon-Bell-winning extreme
// weather detection (§IV-A.3, §IV-B.1).
//
// A convolutional classifier is trained data-parallel over goroutine
// ranks on synthetic CAM5-like fields (cyclone vortices vs calm flow),
// using the study's actual techniques: LARC adaptive gradient clipping,
// fp16 gradient compression, and the one-step gradient lag that overlaps
// the allreduce with computation. Afterwards the performance model
// projects the same configuration onto full Summit and prints the
// weak-scaling curve that the paper reports at 90.7% efficiency.
//
// Run with: go run ./examples/climate
package main

import (
	"fmt"

	"summitscale/internal/autograd"
	"summitscale/internal/data"
	"summitscale/internal/ddl"
	"summitscale/internal/models"
	"summitscale/internal/mp"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/perf"
	"summitscale/internal/stats"
	"summitscale/internal/storage"
)

func main() {
	const (
		ranks  = 4
		epochs = 16
		seed   = 11
	)
	src := data.NewClimateImages(seed, 96, 2, 12)
	fmt.Printf("training on %d synthetic climate fields (%v each) across %d ranks\n",
		src.Len(), src.BytesPerSample(), ranks)

	world := mp.NewWorld(ranks)
	world.Run(func(c *mp.Comm) {
		m := nn.NewSmallCNN(stats.NewRNG(3), nn.SmallCNNConfig{
			InChannels: 2, ImageSize: 12, Channels: []int{8}, Classes: 2,
		})
		opt := optim.NewMomentumSGD(0.03, 0.9)
		r := ddl.NewRank(c, m, opt, ddl.Config{
			Compression: ddl.FP16,
			GradLag:     true,
		})
		for epoch := 0; epoch < epochs; epoch++ {
			idx := data.ShardedEpoch(seed, epoch, src.Len(), c.Size(), c.Rank())
			var loss float64
			// Prefetch batches on a background goroutine: input decode
			// overlaps training compute (the §VI-B pipeline assumption).
			pf := data.NewPrefetcher(src, data.Batches(idx, 4), 2)
			for {
				b, ok := pf.Next()
				if !ok {
					break
				}
				x, labels := b.X, b.Labels
				loss = r.Step(func(int) *autograd.Value {
					// LARC: clip per-layer gradients adaptively before the
					// optimizer step (applied inside the loss closure via
					// the optimizer's view after backward).
					l := autograd.SoftmaxCrossEntropy(m.Forward(autograd.ConstantIn(r.Arena(), x)), labels)
					return l
				})
				optim.LARCClip(m.Params(), opt.LR(), 0.02)
			}
			pf.Close()
			if c.Rank() == 0 && epoch%4 == 0 {
				fmt.Printf("  epoch %2d  loss %.4f\n", epoch, loss)
			}
		}
		if c.Rank() == 0 {
			correct := 0
			for i := 0; i < src.Len(); i += 8 {
				hi := min(i+8, src.Len())
				idx := make([]int, hi-i)
				for k := range idx {
					idx[k] = i + k
				}
				x, labels := data.BatchImages(src, idx)
				for k, p := range m.Forward(autograd.Constant(x)).Data.ArgMaxRows() {
					if p == labels[k] {
						correct++
					}
				}
			}
			fmt.Printf("cyclone detection accuracy: %.1f%%\n\n", 100*float64(correct)/float64(src.Len()))
		}
	})

	// Project to full Summit with the performance model (the S1 study).
	job := perf.SummitJob(models.DeepLabV3Plus(), 4560)
	job.GradLag = true
	job.Store = storage.NewNVMe()
	job.JitterPerDoubling = 0.008
	fmt.Println("projected weak scaling of the full DeepLabv3+ configuration:")
	for _, pt := range perf.ScalingCurve(job, []int{1, 64, 1024, 4560}) {
		fmt.Printf("  %5d nodes  %12v  efficiency %5.1f%%\n",
			pt.Nodes, pt.Flops, 100*pt.Efficiency)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
