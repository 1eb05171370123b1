package core

import (
	"summitscale/internal/obs"
	"summitscale/internal/portfolio"
)

// StudySeed is the seed of the canonical reconstructed portfolio.
const StudySeed = 1

func tableExperiments() []Experiment {
	return []Experiment{
		{
			ID:         "T1",
			Title:      "Table I — science application AI motifs",
			PaperClaim: "ten-motif taxonomy from fault detection to undetermined",
			Body: func(*Cache, *obs.Observer) Result {
				rows := portfolio.TableI()
				return Result{
					Metrics: []Metric{{Name: "motif count", Paper: 10,
						Measured: float64(len(rows)), Unit: "motifs", Tol: 1e-9}},
					Detail: portfolio.RenderTableI(),
				}
			},
		},
		{
			ID:         "T2",
			Title:      "Table II — science domains and subdomains",
			PaperClaim: "nine domains spanning the OLCF subdomain codes",
			Body: func(*Cache, *obs.Observer) Result {
				t2 := portfolio.TableII()
				return Result{
					Metrics: []Metric{
						{Name: "domain count", Paper: 9, Measured: float64(len(t2)), Unit: "domains", Tol: 1e-9},
						{Name: "subdomain entries", Measured: float64(portfolio.SubdomainCount()), Unit: "subdomains"},
					},
					Detail: portfolio.RenderTableII(),
				}
			},
		},
		{
			ID:         "T3",
			Title:      "Table III — Gordon Bell finalist project counts",
			PaperClaim: "Summit finalists 5/2/4/2/1/3 by year-category; AI/ML 3/0/1/2/1/3",
			Body: func(*Cache, *obs.Observer) Result {
				rows := portfolio.TableIII()
				paperSummit := []float64{5, 2, 4, 2, 1, 3}
				paperAI := []float64{3, 0, 1, 2, 1, 3}
				var ms []Metric
				var sumS, sumA, paperS, paperA float64
				for i, row := range rows {
					sumS += float64(row.Summit)
					sumA += float64(row.SummitAI)
					paperS += paperSummit[i]
					paperA += paperAI[i]
				}
				ms = append(ms,
					Metric{Name: "total Summit finalists", Paper: paperS, Measured: sumS, Unit: "projects", Tol: 1e-9},
					Metric{Name: "total AI/ML finalists", Paper: paperA, Measured: sumA, Unit: "projects", Tol: 1e-9},
				)
				for i, row := range rows {
					ms = append(ms, Metric{
						Name:  row.Category.String() + " " + itoa(row.Year) + " AI/ML",
						Paper: paperAI[i], Measured: float64(row.SummitAI), Unit: "projects", Tol: 1e-9,
					})
				}
				return Result{Metrics: ms, Detail: portfolio.RenderTableIII() + portfolio.RenderGordonBellReview()}
			},
		},
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// figureExperiments returns F1–F6. Every figure is a view of the same
// reconstructed portfolio, so each declares the shared dataset in Needs
// and resolves it through the cache: under the DAG scheduler the
// dataset is generated once for all six, not once per figure.
func figureExperiments() []Experiment {
	return []Experiment{
		{
			ID:         "F1",
			Title:      "Figure 1 — overall AI/ML usage",
			PaperClaim: "about 1/3 of project-years actively use AI/ML, another 8% inactive",
			Needs:      []string{keyPortfolio},
			Body: func(c *Cache, _ *obs.Observer) Result {
				d := cachedStudy(c)
				f := d.Figure1()
				return Result{
					Metrics: []Metric{
						{Name: "active fraction", Paper: 0.333, Measured: f.Active, Unit: "", Tol: 0.10},
						{Name: "inactive fraction", Paper: 0.08, Measured: f.Inactive, Unit: "", Tol: 0.30},
					},
					Detail: d.RenderFigure1(),
				}
			},
		},
		{
			ID:         "F2",
			Title:      "Figure 2 — usage by program and year",
			PaperClaim: "INCITE active adoption grows 20% (2019) to 31% (2022); ALCC heavy in 2019-20; ECP lighter; COVID heavy",
			Needs:      []string{keyPortfolio},
			Body: func(c *Cache, _ *obs.Observer) Result {
				d := cachedStudy(c)
				f2 := d.Figure2()
				return Result{
					Metrics: []Metric{
						{Name: "INCITE 2019 active", Paper: 0.20, Measured: f2[portfolio.INCITE][2019].Active, Tol: 0.15},
						{Name: "INCITE 2022 active", Paper: 0.31, Measured: f2[portfolio.INCITE][2022].Active, Tol: 0.15},
						{Name: "INCITE 2022 inactive", Paper: 0.28, Measured: f2[portfolio.INCITE][2022].Inactive, Tol: 0.15},
						{Name: "COVID active", Paper: 0.75, Measured: f2[portfolio.COVID][2020].Active, Tol: 0.2},
					},
					Detail: d.RenderFigure2(),
				}
			},
		},
		{
			ID:         "F3",
			Title:      "Figure 3 — usage by AI/ML method",
			PaperClaim: "deep learning and other NN methods much more prevalent than classical ML",
			Needs:      []string{keyPortfolio},
			Body: func(c *Cache, _ *obs.Observer) Result {
				d := cachedStudy(c)
				f3 := d.Figure3()
				dlnn := f3[portfolio.DeepLearning] + f3[portfolio.OtherNeuralNetwork]
				return Result{
					Metrics: []Metric{
						{Name: "DL+NN share of AI projects", Paper: 0.70, Measured: dlnn, Tol: 0.15},
						{Name: "other-ML share", Measured: f3[portfolio.OtherML]},
					},
					Detail: d.RenderFigure3(),
				}
			},
		},
		{
			ID:         "F4",
			Title:      "Figure 4 — usage by science domain",
			PaperClaim: "Computer Science highest adoption; Biology and Materials heavy; usage highly domain-specific",
			Needs:      []string{keyPortfolio},
			Body: func(c *Cache, _ *obs.Observer) Result {
				d := cachedStudy(c)
				f4 := d.Figure4()
				rate := func(dom portfolio.Domain) float64 {
					c := f4[dom]
					tot := c[portfolio.Active] + c[portfolio.Inactive] + c[portfolio.None]
					if tot == 0 {
						return 0
					}
					return float64(c[portfolio.Active]+c[portfolio.Inactive]) / float64(tot)
				}
				return Result{
					Metrics: []Metric{
						{Name: "Computer Science adoption rate", Paper: 0.85, Measured: rate(portfolio.ComputerScience), Tol: 0.2},
						{Name: "Biology adoption rate", Paper: 0.60, Measured: rate(portfolio.Biology), Tol: 0.25},
						{Name: "Nuclear Energy adoption rate", Measured: rate(portfolio.NuclearEnergy)},
					},
					Detail: d.RenderFigure4(),
				}
			},
		},
		{
			ID:         "F5",
			Title:      "Figure 5 — usage by AI motif",
			PaperClaim: "Submodels top; with Classification, Analysis, Surrogates and MD Potentials over 3/4 of usage",
			Needs:      []string{keyPortfolio},
			Body: func(c *Cache, _ *obs.Observer) Result {
				d := cachedStudy(c)
				f5 := d.Figure5()
				return Result{
					Metrics: []Metric{
						{Name: "top-5 motif share", Paper: 0.78, Measured: d.TopMotifShare(), Tol: 0.15},
						{Name: "submodel share", Measured: f5[portfolio.Submodel]},
					},
					Detail: d.RenderFigure5(),
				}
			},
		},
		{
			ID:         "F6",
			Title:      "Figure 6 — AI motif vs science domain",
			PaperClaim: "Engineering×Submodel most prominent; Biology uses no grid submodels; CS has no math/cs projects",
			Needs:      []string{keyPortfolio},
			Body: func(c *Cache, _ *obs.Observer) Result {
				d := cachedStudy(c)
				f6 := d.Figure6()
				bioSub := float64(f6[portfolio.Biology][portfolio.Submodel])
				csMath := float64(f6[portfolio.ComputerScience][portfolio.MathCSAlgorithm])
				engSub := float64(f6[portfolio.Engineering][portfolio.Submodel])
				maxOther := 0.0
				for dom, row := range f6 {
					for m, c := range row {
						if dom == portfolio.Engineering && m == portfolio.Submodel {
							continue
						}
						if float64(c) > maxOther {
							maxOther = float64(c)
						}
					}
				}
				return Result{
					Metrics: []Metric{
						{Name: "Biology×Submodel count", Paper: 0, Measured: bioSub, Tol: 1e-9},
						{Name: "CS×MathCS count", Paper: 0, Measured: csMath, Tol: 1e-9},
						{Name: "Engineering×Submodel is max (1=yes)", Paper: 1,
							Measured: boolMetric(engSub > maxOther), Tol: 1e-9},
					},
					Detail: d.RenderFigure6(),
				}
			},
		},
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
