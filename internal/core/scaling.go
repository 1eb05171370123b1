package core

import (
	"fmt"
	"strings"

	"summitscale/internal/models"
	"summitscale/internal/obs"
	"summitscale/internal/perf"
	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// ScalingStudy is one §IV-B case: a calibrated perf.Job plus the paper's
// reported figures. Calibration knobs (overlap, jitter, accumulation)
// are documented per study; see EXPERIMENTS.md.
type ScalingStudy struct {
	ID, Name   string
	PaperClaim string
	Job        perf.Job
	BaseNodes  int
	AtNodes    int
	// Paper-reported values; zero means not reported.
	PaperEfficiency float64
	PaperFlops      units.FlopsPerSecond
	// Secondary no-I/O variant (Blanchard).
	NoIOJob             *perf.Job
	PaperNoIOEfficiency float64
	// Curve is the node schedule for the rendered scaling curve.
	Curve []int
}

// ScalingStudies returns the five §IV-B cases with calibrated models on
// the paper's baseline machine.
func ScalingStudies() []ScalingStudy {
	return ScalingStudiesOn(platform.Summit())
}

// ScalingStudiesOn returns the §IV-B cases replayed on the given
// platform. On the baseline the studies are byte-identical to the seed
// (locked by the golden tests). Elsewhere the node schedule is clamped to
// the machine's size, the input path falls back to the shared FS on
// diskless machines, and the paper's Summit-only reference values are
// dropped so the metrics render as informational.
func ScalingStudiesOn(p platform.Platform) []ScalingStudy {
	clamp := func(n int) int {
		if n > p.Nodes {
			return p.Nodes
		}
		return n
	}
	// Fastest training input path: node-local NVMe when present.
	nodeLocal := p.TrainingStore()
	sharedFS := p.GPFS()

	// S1 — Kurth et al.: DeepLabv3+ climate segmentation.
	// Gradient lag hides the fp16 allreduce; node-local NVMe feeds input;
	// 0.8%/doubling straggler jitter reproduces the 90.7% efficiency.
	kurth := p.Job(models.DeepLabV3Plus(), clamp(4560))
	kurth.GradLag = true
	kurth.Store = nodeLocal
	kurth.JitterPerDoubling = 0.008

	// S2 — Yang et al.: PI-GAN with model (2-way) + data parallelism.
	yang := p.Job(models.PIGAN(), clamp(4584))
	yang.ModelParallelWays = 2
	yang.OverlapComm = 0.9
	yang.Store = nodeLocal
	yang.JitterPerDoubling = 0.0055

	// S3 — Laanait et al.: FC-DenseNet with custom gradient-reduction
	// optimizations (modelled as near-total overlap).
	laanait := p.Job(models.FCDenseNet(), clamp(4600))
	laanait.OverlapComm = 0.95
	laanait.Store = nodeLocal
	laanait.JitterPerDoubling = 0.004

	// S4 — Khan et al.: WaveNet with LAMB, 8 -> 1024 nodes at 80%. The
	// dominant losses were input-pipeline and optimizer stragglers; jitter
	// is calibrated accordingly (3%/doubling) with modest overlap.
	khan := p.Job(models.WaveNetGW(), clamp(1024))
	khan.OverlapComm = 0.3
	khan.Store = sharedFS
	khan.JitterPerDoubling = 0.03

	// S5 — Blanchard et al.: BERT pretraining with gradient accumulation
	// and batch up to 5.8M. The with-I/O job charges an effective 1.35 MB
	// per sample (dataset re-reads plus synchronous checkpoint traffic)
	// against GPFS, reproducing the 68% vs 83.3% gap.
	blanchardNoIO := p.Job(models.BERTLarge(), clamp(4032))
	blanchardNoIO.AccumSteps = 8
	blanchardNoIO.OverlapComm = 0.65
	blanchardNoIO.JitterPerDoubling = 0.005

	blanchard := blanchardNoIO
	blanchard.Store = sharedFS
	ioModel := blanchard.Model
	ioModel.RecordBytes = units.Bytes(1.35 * 1e6)
	blanchard.Model = ioModel

	studies := []ScalingStudy{
		{
			ID: "S1", Name: "Kurth et al. — exascale climate analytics",
			PaperClaim: "4560 nodes, 1.13 EF mixed-precision peak, 90.7% parallel efficiency",
			Job:        kurth,
			BaseNodes:  1, AtNodes: 4560,
			PaperEfficiency: 0.907,
			PaperFlops:      1.13 * units.EFlops,
			Curve:           []int{1, 16, 64, 256, 1024, 4560},
		},
		{
			ID: "S2", Name: "Yang et al. — physics-informed GANs",
			PaperClaim: "4584 nodes, >1.2 EF mixed precision at 93% efficiency, model+data parallelism",
			Job:        yang,
			BaseNodes:  2, AtNodes: 4584,
			PaperEfficiency: 0.93,
			PaperFlops:      1.2 * units.EFlops,
			Curve:           []int{2, 16, 64, 256, 1024, 4584},
		},
		{
			ID: "S3", Name: "Laanait et al. — scientific inverse problems",
			PaperClaim: "4600 nodes, batch 27600, peak 2.15 EF mixed precision",
			Job:        laanait,
			BaseNodes:  1, AtNodes: 4600,
			PaperEfficiency: 0, // not reported
			PaperFlops:      2.15 * units.EFlops,
			Curve:           []int{1, 16, 64, 256, 1024, 4600},
		},
		{
			ID: "S4", Name: "Khan et al. — black-hole parameter inference",
			PaperClaim: "80% scaling efficiency from 8 to 1024 nodes with LAMB",
			Job:        khan,
			BaseNodes:  8, AtNodes: 1024,
			PaperEfficiency: 0.80,
			Curve:           []int{8, 32, 128, 512, 1024},
		},
		{
			ID: "S5", Name: "Blanchard et al. — SMILES language models",
			PaperClaim: "68% scaling 1→4032 nodes (83.3% without I/O), 603 PF at 4032 nodes",
			Job:        blanchard,
			BaseNodes:  1, AtNodes: 4032,
			PaperEfficiency:     0.68,
			PaperFlops:          603 * units.PFlops,
			NoIOJob:             &blanchardNoIO,
			PaperNoIOEfficiency: 0.833,
			Curve:               []int{1, 16, 64, 256, 1024, 4032},
		},
	}
	if !p.IsPaperBaseline() {
		for i := range studies {
			s := &studies[i]
			s.Name += fmt.Sprintf(" [replayed on %s]", p.Name)
			s.PaperClaim = fmt.Sprintf("Summit result: %s — replayed on %s without reference values",
				s.PaperClaim, p.Name)
			s.AtNodes = clamp(s.AtNodes)
			s.Curve = clampCurve(s.Curve, p.Nodes)
			// The paper's numbers were measured on Summit only; on other
			// machines the model output is informational.
			s.PaperEfficiency = 0
			s.PaperFlops = 0
			s.PaperNoIOEfficiency = 0
		}
	}
	return studies
}

// clampCurve caps a node schedule at the machine size, deduplicating the
// tail when several points collapse onto the cap.
func clampCurve(curve []int, max int) []int {
	out := make([]int, 0, len(curve))
	for _, n := range curve {
		if n > max {
			n = max
		}
		if len(out) > 0 && out[len(out)-1] == n {
			continue
		}
		out = append(out, n)
	}
	return out
}

// RunScalingStudy evaluates one study.
func RunScalingStudy(s ScalingStudy) Result {
	eff := perf.ParallelEfficiency(s.Job, s.BaseNodes, s.AtNodes)
	// Peak sustained rate: papers report the compute peak, so it is
	// measured on the no-I/O variant when one exists (Blanchard's 603 PF
	// is the training-kernel rate, not the I/O-throttled average).
	atJob := s.Job
	if s.NoIOJob != nil {
		atJob = *s.NoIOJob
	}
	atJob.Nodes = s.AtNodes
	flops := perf.SustainedFlops(atJob)

	var ms []Metric
	if s.PaperEfficiency > 0 {
		ms = append(ms, Metric{Name: "parallel efficiency", Paper: s.PaperEfficiency,
			Measured: eff, Tol: 0.10})
	} else {
		ms = append(ms, Metric{Name: "parallel efficiency", Measured: eff})
	}
	if s.PaperFlops > 0 {
		ms = append(ms, Metric{Name: "sustained mixed-precision rate",
			Paper: float64(s.PaperFlops), Measured: float64(flops), Unit: "Flop/s", Tol: 0.25})
	}
	if s.NoIOJob != nil {
		noIOEff := perf.ParallelEfficiency(*s.NoIOJob, s.BaseNodes, s.AtNodes)
		if s.PaperNoIOEfficiency > 0 {
			ms = append(ms, Metric{Name: "efficiency without I/O", Paper: s.PaperNoIOEfficiency,
				Measured: noIOEff, Tol: 0.10})
		} else {
			ms = append(ms, Metric{Name: "efficiency without I/O", Measured: noIOEff})
		}
		// The paper claims an I/O-induced efficiency gap on Summit only;
		// on a machine with a faster shared FS the gap can legitimately
		// vanish, so the consistency flag applies just where the
		// reference gap is recorded.
		if s.PaperNoIOEfficiency > 0 && noIOEff <= eff {
			ms = append(ms, Metric{Name: "I/O costs reduce efficiency (1=yes)", Paper: 1,
				Measured: 0, Tol: 1e-9})
		}
	}
	return Result{Metrics: ms, Detail: RenderScalingCurve(s)}
}

// RenderScalingCurve prints the weak-scaling table of a study.
func RenderScalingCurve(s ScalingStudy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): weak scaling, per-GPU batch %d\n",
		s.Name, s.Job.Model.Name, s.Job.Model.PerGPUBatch)
	b.WriteString("  nodes   samples/s     sustained        efficiency  step breakdown\n")
	for _, pt := range perf.ScalingCurve(s.Job, s.Curve) {
		fmt.Fprintf(&b, "  %5d  %10.0f  %14v  %9.1f%%  %s\n",
			pt.Nodes, pt.Throughput, pt.Flops, 100*pt.Efficiency, pt.Step)
	}
	return b.String()
}

func scalingExperiments() []Experiment {
	return ScalingExperimentsOn(platform.Summit())
}

// ScalingExperimentsOn wraps each §IV-B study on the given platform as a
// runnable Experiment. The calibrated study set is a shared sub-result
// (RS1's checkpoint sweep reuses the S1/S5 run shapes), so each
// experiment declares it in Needs and resolves its own study through the
// cache by ID.
func ScalingExperimentsOn(p platform.Platform) []Experiment {
	var out []Experiment
	for _, s := range ScalingStudiesOn(p) {
		id := s.ID
		out = append(out, Experiment{
			ID:         id,
			Title:      "§IV-B scaling — " + s.Name,
			PaperClaim: s.PaperClaim,
			Needs:      []string{keyScalingStudies(p)},
			Body: func(c *Cache, _ *obs.Observer) Result {
				return RunScalingStudy(studyByID(c, p, id))
			},
		})
	}
	return out
}
