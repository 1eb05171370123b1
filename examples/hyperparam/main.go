// Hyperparam: a miniature of Patton et al.'s 2018 Gordon Bell finalist
// (§IV-A.2) — evolutionary hyperparameter and topology search for neural
// networks (the MENNDL lineage), on the same tournament, crossover,
// mutation and elitism loop as Blanchard et al.'s compound search
// (internal/ga). Summit trained one candidate per node across 4200
// nodes; here the candidates are scored one after another.
//
// The task is cyclone detection on synthetic climate fields. A genome is
// four tokens: hidden-layer count, width, learning rate and activation.
//
// Run with: go run ./examples/hyperparam
package main

import (
	"fmt"
	"math"

	"summitscale/internal/autograd"
	"summitscale/internal/data"
	"summitscale/internal/ga"
	"summitscale/internal/nn"
	"summitscale/internal/optim"
	"summitscale/internal/stats"
	"summitscale/internal/tensor"
)

// vocab is the number of values each of the four tokens takes.
const vocab = 8

// hyper is the MLP configuration a genome decodes to.
type hyper struct {
	layers int     // hidden layers, 1 to 3
	width  int     // units per hidden layer, a power of two from 4 to 64
	lr     float64 // momentum-SGD learning rate, log grid from 1e-3 to 1
	tanh   bool    // tanh, else relu
}

func decode(g []int) hyper {
	return hyper{
		layers: 1 + g[0]%3,
		width:  4 << (g[1] % 5),
		lr:     1e-3 * math.Pow(1e3, float64(g[2])/(vocab-1)),
		tanh:   g[3]%2 == 1,
	}
}

func (h hyper) String() string {
	act := "relu"
	if h.tanh {
		act = "tanh"
	}
	return fmt.Sprintf("{layers=%d width=%d lr=%.3g act=%s}", h.layers, h.width, h.lr, act)
}

// task is the data a candidate trains and is validated on.
type task struct {
	trainX, valX *tensor.Tensor
	trainY, valY []int
	classes      int
	steps        int // training budget per candidate
}

// score trains the MLP genome g decodes to with momentum SGD and returns
// its validation accuracy. The weights are drawn from an RNG seeded with
// the genome, so a genome scores the same wherever it is evaluated.
func (t task) score(g []int) float64 {
	h := decode(g)
	var seed uint64
	for _, tok := range g {
		seed = seed*vocab + uint64(tok)
	}
	act := autograd.ReLU
	if h.tanh {
		act = autograd.Tanh
	}
	widths := []int{t.trainX.Dim(1)}
	for i := 0; i < h.layers; i++ {
		widths = append(widths, h.width)
	}
	m := nn.NewMLP(stats.NewRNG(seed), append(widths, t.classes), act)
	opt := optim.NewMomentumSGD(h.lr, 0.9)
	x := autograd.Constant(t.trainX)
	for step := 0; step < t.steps; step++ {
		nn.ZeroGrads(m)
		autograd.SoftmaxCrossEntropy(m.Forward(x), t.trainY).Backward(nil)
		opt.Step(m.Params())
	}
	correct := 0
	for i, p := range m.Forward(autograd.Constant(t.valX)).Data.ArgMaxRows() {
		if p == t.valY[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(t.valY))
}

func main() {
	// Flattened climate fields as MLP input.
	src := data.NewClimateImages(3, 96, 1, 8)
	flatten := func(lo, hi int) (*tensor.Tensor, []int) {
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, y := data.BatchImages(src, idx)
		return x.Reshape(hi-lo, 64), y
	}
	t := task{classes: src.Classes(), steps: 60}
	t.trainX, t.trainY = flatten(0, 64)
	t.valX, t.valY = flatten(64, 96)

	cfg := ga.Config{Population: 16, Genes: 4, Vocab: vocab, MutationRate: 0.25,
		TournamentK: 3, Elite: 2}
	const generations = 6
	fmt.Printf("evolving %d candidates for %d generations\n", cfg.Population, generations)
	pop, best := ga.Search(stats.NewRNG(1), cfg, generations, t.score)

	fmt.Println("best validation accuracy per generation:")
	for g, b := range best {
		fmt.Printf("  gen %d: %.1f%%\n", g, 100*b)
	}
	fmt.Println("\ntop configurations:")
	for i := 0; i < 3 && i < len(pop); i++ {
		fmt.Printf("  %.1f%%  %v\n", 100*pop[i].Score, decode(pop[i].Genes))
	}
}
