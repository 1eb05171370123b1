package portfolio

// Fractions is a status breakdown as fractions summing to 1.
type Fractions struct {
	Active, Inactive, None float64
}

func fractions(ps []Project) Fractions {
	if len(ps) == 0 {
		return Fractions{}
	}
	var f Fractions
	for _, p := range ps {
		switch p.Status {
		case Active:
			f.Active++
		case Inactive:
			f.Inactive++
		default:
			f.None++
		}
	}
	n := float64(len(ps))
	f.Active /= n
	f.Inactive /= n
	f.None /= n
	return f
}

// Figure1 returns the overall AI/ML adoption fractions across all non-GB
// project-years — the paper reports roughly 1/3 active plus 8% inactive.
func (d *Dataset) Figure1() Fractions {
	return fractions(d.NonGB())
}

// Figure2 breaks adoption down by program and year.
func (d *Dataset) Figure2() map[Program]map[int]Fractions {
	byPY := map[Program]map[int][]Project{}
	for _, p := range d.NonGB() {
		if byPY[p.Program] == nil {
			byPY[p.Program] = map[int][]Project{}
		}
		byPY[p.Program][p.Year] = append(byPY[p.Program][p.Year], p)
	}
	out := map[Program]map[int]Fractions{}
	for prog, years := range byPY {
		out[prog] = map[int]Fractions{}
		for yr, ps := range years {
			out[prog][yr] = fractions(ps)
		}
	}
	return out
}

// Figure3 returns the method mix among AI-using (active + inactive)
// non-GB projects, as fractions of that population.
func (d *Dataset) Figure3() map[Method]float64 {
	ai := d.Filter(func(p Project) bool { return p.Program != GordonBell && p.UsesAI() })
	out := map[Method]float64{}
	for _, p := range ai {
		out[p.Method]++
	}
	for m := range out {
		out[m] /= float64(len(ai))
	}
	return out
}

// Figure4 returns project counts by science domain and adoption status.
func (d *Dataset) Figure4() map[Domain]map[Status]int {
	out := map[Domain]map[Status]int{}
	for _, p := range d.NonGB() {
		if out[p.Domain] == nil {
			out[p.Domain] = map[Status]int{}
		}
		out[p.Domain][p.Status]++
	}
	return out
}

// figure56Scope selects the population of Figures 5 and 6: INCITE, ALCC
// and ECP projects (where proposal detail is abundant), active + inactive.
func (d *Dataset) figure56Scope() []Project {
	return d.Filter(func(p Project) bool {
		switch p.Program {
		case INCITE, ALCC, ECP:
			return p.UsesAI()
		}
		return false
	})
}

// Figure5 returns the motif mix of the Figure-5 population as fractions.
func (d *Dataset) Figure5() map[Motif]float64 {
	ps := d.figure56Scope()
	out := map[Motif]float64{}
	for _, p := range ps {
		out[p.Motif]++
	}
	for m := range out {
		out[m] /= float64(len(ps))
	}
	return out
}

// Figure6 returns the motif × domain count matrix of the same population.
func (d *Dataset) Figure6() map[Domain]map[Motif]int {
	out := map[Domain]map[Motif]int{}
	for _, p := range d.figure56Scope() {
		if out[p.Domain] == nil {
			out[p.Domain] = map[Motif]int{}
		}
		out[p.Domain][p.Motif]++
	}
	return out
}

// TopMotifShare returns the combined Figure-5 share of the paper's top
// five motifs (submodel, classification, analysis, surrogate, MD
// potentials), which the paper says account for over 3/4 of usage.
func (d *Dataset) TopMotifShare() float64 {
	f5 := d.Figure5()
	return f5[Submodel] + f5[Classification] + f5[Analysis] + f5[SurrogateModel] + f5[MDPotentials]
}
