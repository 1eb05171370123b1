package data

import (
	"math"

	"summitscale/internal/stats"
	"summitscale/internal/units"
)

// SMILESVocabulary is the token alphabet of the synthetic compound
// language. Index 0 is the mask token used for masked-LM pretraining,
// mirroring the custom vocabulary of Blanchard et al.'s SMILES BERT.
var SMILESVocabulary = []string{
	"[MASK]", "C", "c", "N", "n", "O", "o", "S", "F", "Cl", "Br",
	"(", ")", "=", "#", "1", "2", "3", "[nH]", "[C@H]",
}

// SMILESSequences generates token sequences from a small stochastic
// grammar over SMILESVocabulary: runs of atoms with balanced branch
// parentheses and ring-closure digit pairs. Deterministic in (Seed, index).
type SMILESSequences struct {
	Seed   uint64
	N      int
	SeqLen int
}

// NewSMILESSequences creates the source.
func NewSMILESSequences(seed uint64, n, seqLen int) *SMILESSequences {
	return &SMILESSequences{Seed: seed, N: n, SeqLen: seqLen}
}

// Len returns the dataset size.
func (s *SMILESSequences) Len() int { return s.N }

// Vocab returns the vocabulary size.
func (s *SMILESSequences) Vocab() int { return len(SMILESVocabulary) }

// BytesPerSample models a stored SMILES string record (~2 bytes/token of
// text plus metadata).
func (s *SMILESSequences) BytesPerSample() units.Bytes {
	return units.Bytes(2*s.SeqLen + 16)
}

// tokenClass indices into SMILESVocabulary.
const (
	tokMask       = 0
	tokFirstAtom  = 1
	tokLastAtom   = 10
	tokOpenParen  = 11
	tokCloseParen = 12
	tokBondEq     = 13
	tokRingFirst  = 15
	tokRingLast   = 17
)

// Sequence returns token ids for sample i.
func (s *SMILESSequences) Sequence(i int) []int {
	rng := stats.NewRNG(s.Seed*0x2545f491 + uint64(i))
	ids := make([]int, 0, s.SeqLen)
	depth := 0
	openRings := []int{}
	for len(ids) < s.SeqLen {
		r := rng.Float64()
		switch {
		case r < 0.55 || len(ids) == 0:
			ids = append(ids, tokFirstAtom+rng.Intn(tokLastAtom-tokFirstAtom+1))
		case r < 0.65 && depth < 3 && len(ids) < s.SeqLen-2:
			ids = append(ids, tokOpenParen)
			depth++
		case r < 0.75 && depth > 0:
			ids = append(ids, tokCloseParen)
			depth--
		case r < 0.85:
			ids = append(ids, tokBondEq+rng.Intn(2))
		default:
			if len(openRings) > 0 && rng.Bool(0.5) {
				last := openRings[len(openRings)-1]
				openRings = openRings[:len(openRings)-1]
				ids = append(ids, last)
			} else {
				ring := tokRingFirst + rng.Intn(tokRingLast-tokRingFirst+1)
				openRings = append(openRings, ring)
				ids = append(ids, ring)
			}
		}
	}
	return ids[:s.SeqLen]
}

// MaskedSample returns a masked-LM training pair: the input with maskFrac
// of positions replaced by [MASK], the original ids as targets, and the
// masked positions.
func (s *SMILESSequences) MaskedSample(i int, maskFrac float64) (input, target []int, masked []int) {
	rng := stats.NewRNG(s.Seed*0x9d2c5681 + uint64(i) + 1)
	target = s.Sequence(i)
	input = append([]int(nil), target...)
	for p := range input {
		if rng.Bool(maskFrac) {
			input[p] = tokMask
			masked = append(masked, p)
		}
	}
	if len(masked) == 0 { // always mask at least one position
		p := rng.Intn(len(input))
		input[p] = tokMask
		masked = append(masked, p)
	}
	return input, target, masked
}

// Waveforms generates damped-chirp time series parameterized by two
// physical parameters (the stand-in for Khan et al.'s binary-black-hole
// mass pair): x(t) = exp(-d·t)·sin(2π(f0 + k·t)·t). The regression task is
// to recover (f0, k) from the sampled waveform.
type Waveforms struct {
	Seed    uint64
	N       int
	Samples int
	// NoiseSD perturbs the waveform, modelling detector noise.
	NoiseSD float64
}

// NewWaveforms creates the source.
func NewWaveforms(seed uint64, n, samples int, noiseSD float64) *Waveforms {
	return &Waveforms{Seed: seed, N: n, Samples: samples, NoiseSD: noiseSD}
}

// Len returns the dataset size.
func (w *Waveforms) Len() int { return w.N }

// BytesPerSample models float32 storage of the series plus parameters.
func (w *Waveforms) BytesPerSample() units.Bytes {
	return units.Bytes(4 * (w.Samples + 2))
}

// Sample returns the waveform and its two generating parameters, each
// scaled to [0, 1].
func (w *Waveforms) Sample(i int) (series []float64, params [2]float64) {
	rng := stats.NewRNG(w.Seed*0x6c62272e + uint64(i))
	f0 := 0.5 + rng.Float64()*2.5 // base frequency
	k := 0.1 + rng.Float64()*1.9  // chirp rate
	damp := 0.5
	series = make([]float64, w.Samples)
	for t := 0; t < w.Samples; t++ {
		tt := float64(t) / float64(w.Samples)
		series[t] = math.Exp(-damp*tt)*math.Sin(2*math.Pi*(f0+k*tt)*tt*float64(w.Samples)/8) +
			rng.NormFloat64()*w.NoiseSD
	}
	params[0] = (f0 - 0.5) / 2.5
	params[1] = (k - 0.1) / 1.9
	return series, params
}
