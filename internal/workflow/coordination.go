package workflow

import "fmt"

// ActiveLearningConfig parameterizes the ML+modsim refinement loop of Liu
// et al. (§V-A): a cheap learned surrogate drives the simulation, and
// configurations where the surrogate is uncertain are sent to the
// expensive reference calculation to grow the training set.
type ActiveLearningConfig struct {
	Rounds int
	// BatchPerRound is how many new reference labels are acquired per round.
	BatchPerRound int
}

// ActiveLearningHooks supplies the domain pieces.
type ActiveLearningHooks[Sample any, Model any] struct {
	// Propose generates candidate samples by running the simulation under
	// the current model (nil model on round 0).
	Propose func(model *Model, round, count int) []Sample
	// Reference labels a sample with the expensive ground-truth method.
	Reference func(Sample) float64
	// Fit trains a fresh model on all labelled data.
	Fit func(samples []Sample, labels []float64) (*Model, error)
	// Validate returns the model error on a held-out probe (lower is
	// better); it is recorded per round.
	Validate func(*Model) float64
}

// ActiveLearningResult reports the loop's trajectory.
type ActiveLearningResult[Sample any, Model any] struct {
	Model         *Model
	Samples       []Sample
	Labels        []float64
	ErrorPerRound []float64
	// ReferenceCalls counts expensive evaluations — the quantity the
	// workflow exists to minimize.
	ReferenceCalls int
}

// ActiveLearn runs the refinement loop.
func ActiveLearn[Sample any, Model any](cfg ActiveLearningConfig,
	hooks ActiveLearningHooks[Sample, Model]) (*ActiveLearningResult[Sample, Model], error) {
	if cfg.Rounds <= 0 || cfg.BatchPerRound <= 0 {
		return nil, fmt.Errorf("workflow: degenerate active-learning config %+v", cfg)
	}
	res := &ActiveLearningResult[Sample, Model]{}
	for round := 0; round < cfg.Rounds; round++ {
		batch := hooks.Propose(res.Model, round, cfg.BatchPerRound)
		if len(batch) == 0 {
			return nil, fmt.Errorf("workflow: round %d proposed no samples", round)
		}
		for _, s := range batch {
			res.Samples = append(res.Samples, s)
			res.Labels = append(res.Labels, hooks.Reference(s))
			res.ReferenceCalls++
		}
		m, err := hooks.Fit(res.Samples, res.Labels)
		if err != nil {
			return nil, fmt.Errorf("workflow: fit in round %d: %w", round, err)
		}
		res.Model = m
		res.ErrorPerRound = append(res.ErrorPerRound, hooks.Validate(m))
	}
	return res, nil
}
