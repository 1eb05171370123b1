package portfolio

import (
	"math"
	"strings"
	"testing"
)

// study is the default dataset used by the reproduction (seed 1).
func study() *Dataset { return Generate(1) }

func TestProjectYearCountsMatchPaper(t *testing.T) {
	// §III: 662 project-years — INCITE 147, ALCC 72, DD 352, COVID non-DD
	// 12, ECP 62, Gordon Bell finalist 17.
	counts := map[Program]int{}
	for _, p := range study().Projects {
		counts[p.Program]++
	}
	want := map[Program]int{
		INCITE: 147, ALCC: 72, DD: 352, COVID: 12, ECP: 62, GordonBell: 17,
	}
	total := 0
	for prog, w := range want {
		if counts[prog] != w {
			t.Errorf("%s count = %d, want %d", prog, counts[prog], w)
		}
		total += counts[prog]
	}
	if total != 662 {
		t.Errorf("total project-years = %d, want 662", total)
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	// Figure 1: about 1/3 active, another 8% inactive.
	f := study().Figure1()
	if math.Abs(f.Active-0.333) > 0.03 {
		t.Errorf("active fraction = %v, paper ~1/3", f.Active)
	}
	if math.Abs(f.Inactive-0.08) > 0.025 {
		t.Errorf("inactive fraction = %v, paper ~8%%", f.Inactive)
	}
	if math.Abs(f.Active+f.Inactive+f.None-1) > 1e-9 {
		t.Errorf("fractions do not sum to 1: %+v", f)
	}
}

func TestFigure2INCITETrajectory(t *testing.T) {
	f2 := study().Figure2()
	incite := f2[INCITE]
	// Paper: INCITE adoption grew steadily from 20% in 2019; by 2022 about
	// 31% active and another 28% inactive (conclusions).
	if math.Abs(incite[2019].Active-0.20) > 0.04 {
		t.Errorf("INCITE 2019 active = %v, paper 20%%", incite[2019].Active)
	}
	if math.Abs(incite[2022].Active-0.31) > 0.04 {
		t.Errorf("INCITE 2022 active = %v, paper 31%%", incite[2022].Active)
	}
	if math.Abs(incite[2022].Inactive-0.28) > 0.04 {
		t.Errorf("INCITE 2022 inactive = %v, paper 28%%", incite[2022].Inactive)
	}
	// Steady growth.
	for yr := 2020; yr <= 2022; yr++ {
		if incite[yr].Active < incite[yr-1].Active {
			t.Errorf("INCITE active usage fell %d -> %d", yr-1, yr)
		}
	}
	// ALCC 2019-20 especially heavy.
	if f2[ALCC][2019].Active < 0.38 {
		t.Errorf("ALCC 2019 active = %v, should be heavy", f2[ALCC][2019].Active)
	}
	// ECP uses AI/ML less than INCITE.
	if f2[ECP][2020].Active >= incite[2020].Active {
		t.Errorf("ECP active %v should be below INCITE %v", f2[ECP][2020].Active, incite[2020].Active)
	}
	// COVID projects use AI/ML heavily.
	if f2[COVID][2020].Active < 0.6 {
		t.Errorf("COVID active = %v, should be heavy", f2[COVID][2020].Active)
	}
}

func TestFigure3DeepLearningDominates(t *testing.T) {
	f3 := study().Figure3()
	dlnn := f3[DeepLearning] + f3[OtherNeuralNetwork]
	other := f3[OtherML]
	// Paper: "DL/NN methods are much more prevalent than others".
	if dlnn <= 2*other {
		t.Errorf("DL/NN share %v not dominant over other ML %v", dlnn, other)
	}
	var total float64
	for _, v := range f3 {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("method fractions sum to %v", total)
	}
}

func TestFigure4DomainPatterns(t *testing.T) {
	f4 := study().Figure4()
	// Computer Science has the highest adoption *rate*.
	rate := func(d Domain) float64 {
		c := f4[d]
		tot := c[Active] + c[Inactive] + c[None]
		if tot == 0 {
			return 0
		}
		return float64(c[Active]+c[Inactive]) / float64(tot)
	}
	csRate := rate(ComputerScience)
	for _, d := range Domains() {
		if d != ComputerScience && rate(d) > csRate {
			t.Errorf("%s adoption rate %v exceeds Computer Science %v", d, rate(d), csRate)
		}
	}
	// Biology is a heavy user; Nuclear Energy light.
	if rate(Biology) < 0.45 {
		t.Errorf("Biology adoption rate = %v", rate(Biology))
	}
	if rate(NuclearEnergy) > rate(Biology) {
		t.Errorf("Nuclear Energy rate %v above Biology %v", rate(NuclearEnergy), rate(Biology))
	}
	// Every domain appears in the portfolio.
	for _, d := range Domains() {
		c := f4[d]
		if c[Active]+c[Inactive]+c[None] == 0 {
			t.Errorf("domain %s absent from portfolio", d)
		}
	}
}

func TestFigure5MotifMix(t *testing.T) {
	f5 := study().Figure5()
	// Paper: the top motif is Submodels...
	for m, v := range f5 {
		if m != Submodel && v > f5[Submodel] {
			t.Errorf("motif %s share %v exceeds submodel %v", m, v, f5[Submodel])
		}
	}
	// ...and with Classification, Analysis, Surrogate Models and MD
	// Potentials accounts for over 3/4 of usage.
	if share := study().TopMotifShare(); share < 0.75 {
		t.Errorf("top-5 motif share = %v, paper says over 3/4", share)
	}
}

func TestFigure6StructuralPatterns(t *testing.T) {
	f6 := study().Figure6()
	// The most prominent cell is Submodels × Engineering.
	maxCell, maxDom, maxMotif := 0, Domain(0), Motif(0)
	for d, row := range f6 {
		for m, c := range row {
			if c > maxCell {
				maxCell, maxDom, maxMotif = c, d, m
			}
		}
	}
	if maxDom != Engineering || maxMotif != Submodel {
		t.Errorf("largest cell is %s × %s (%d), paper says Engineering × Submodel",
			maxDom, maxMotif, maxCell)
	}
	// Biology uses no (grid) submodels — MD potentials instead.
	if f6[Biology][Submodel] != 0 {
		t.Errorf("Biology × Submodel = %d, paper says none", f6[Biology][Submodel])
	}
	if f6[Biology][MDPotentials] == 0 {
		t.Error("Biology should use MD potentials")
	}
	// Computer Science: many Classification, no Math/CS Algorithm.
	if f6[ComputerScience][MathCSAlgorithm] != 0 {
		t.Errorf("CS × math/cs = %d, paper says none", f6[ComputerScience][MathCSAlgorithm])
	}
	if f6[ComputerScience][Classification] == 0 {
		t.Error("CS should contain classification projects")
	}
	// Engineering and Earth Science use very little Classification.
	eng := f6[Engineering]
	engTotal := 0
	for _, c := range eng {
		engTotal += c
	}
	if engTotal > 0 && float64(eng[Classification])/float64(engTotal) > 0.15 {
		t.Errorf("Engineering classification share too high: %d/%d", eng[Classification], engTotal)
	}
	// Materials: machine-learned MD potentials heavily used.
	matRow := f6[Materials]
	for m, c := range matRow {
		if c > matRow[MDPotentials] && m != MDPotentials {
			t.Errorf("Materials top motif is %s, paper says MD potentials", m)
		}
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	rows := TableIII()
	want := []TableIIIRow{
		{2018, GBStandard, 5, 3},
		{2019, GBStandard, 2, 0},
		{2020, GBStandard, 4, 1},
		{2020, GBCovid, 2, 2},
		{2021, GBStandard, 1, 1},
		{2021, GBCovid, 3, 3},
	}
	if len(rows) != len(want) {
		t.Fatalf("Table III has %d rows", len(rows))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("Table III row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

func TestGordonBellReviewDetails(t *testing.T) {
	recs := GordonBellRecords()
	if len(recs) != 17 {
		t.Fatalf("%d GB records, want 17", len(recs))
	}
	aiCount := 0
	byName := map[string]GBRecord{}
	for _, r := range recs {
		if r.UsesAIML {
			aiCount++
			byName[r.Name] = r
		}
	}
	if aiCount != 10 {
		t.Fatalf("%d AI/ML finalists, want 10", aiCount)
	}
	// Spot-check §IV-A facts.
	checks := []struct {
		substr string
		motif  Motif
		nodes  int
	}{
		{"Ichimura", MathCSAlgorithm, 4096},
		{"Kurth", Classification, 4560},
		{"Jia", MDPotentials, 4560},
		{"Glaser", SurrogateModel, 4602},
		{"Nguyen-Cong", MDPotentials, 4650},
		{"Blanchard", Classification, 4032},
		{"Trifan", Steering, 256},
	}
	for _, c := range checks {
		found := false
		for name, r := range byName {
			if strings.Contains(name, c.substr) {
				found = true
				if r.Motif != c.motif || r.MaxNodes != c.nodes {
					t.Errorf("%s: motif=%s nodes=%d, want %s/%d",
						c.substr, r.Motif, r.MaxNodes, c.motif, c.nodes)
				}
			}
		}
		if !found {
			t.Errorf("finalist %q missing", c.substr)
		}
	}
}

func TestTaxonomyTables(t *testing.T) {
	if got := len(TableI()); got != 10 {
		t.Errorf("Table I has %d motifs, want 10", got)
	}
	t2 := TableII()
	if len(t2) != 9 {
		t.Errorf("Table II has %d domains, want 9", len(t2))
	}
	for d, subs := range t2 {
		if len(subs) == 0 {
			t.Errorf("domain %s has no subdomains", d)
		}
	}
	if SubdomainCount() < 38 {
		t.Errorf("only %d subdomains", SubdomainCount())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(7), Generate(7)
	if len(a.Projects) != len(b.Projects) {
		t.Fatal("lengths differ")
	}
	for i := range a.Projects {
		if a.Projects[i] != b.Projects[i] {
			t.Fatalf("project %d differs between equal seeds", i)
		}
	}
	c := Generate(8)
	same := 0
	for i := range a.Projects {
		if a.Projects[i].Domain == c.Projects[i].Domain {
			same++
		}
	}
	if same == len(a.Projects) {
		t.Fatal("different seeds produced identical domain assignments")
	}
}

// TestInvariantsAcrossSeeds: the structural zeros and count calibrations
// must hold for every seed, not just the study seed.
func TestInvariantsAcrossSeeds(t *testing.T) {
	for seed := uint64(2); seed < 12; seed++ {
		d := Generate(seed)
		if got := len(d.Projects); got != 662 {
			t.Fatalf("seed %d: %d project-years", seed, got)
		}
		f6 := d.Figure6()
		if f6[Biology][Submodel] != 0 || f6[ComputerScience][MathCSAlgorithm] != 0 {
			t.Fatalf("seed %d: structural zeros violated", seed)
		}
		f := d.Figure1()
		if f.Active < 0.25 || f.Active > 0.42 {
			t.Fatalf("seed %d: active fraction %v out of band", seed, f.Active)
		}
		for _, p := range d.Projects {
			if p.Status == None && (p.Motif != MotifNone || p.Method != MethodNone) {
				t.Fatalf("seed %d: non-AI project %s has motif/method", seed, p.ID)
			}
			if p.Status != None && p.Program != GordonBell && p.Motif == MotifNone {
				t.Fatalf("seed %d: AI project %s lacks a motif", seed, p.ID)
			}
			if p.AllocationHours < 0 {
				t.Fatalf("seed %d: negative allocation", seed)
			}
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	d := study()
	outputs := []string{
		d.RenderFigure1(), d.RenderFigure2(), d.RenderFigure3(),
		d.RenderFigure4(), d.RenderFigure5(), d.RenderFigure6(),
		RenderTableI(), RenderTableII(), RenderTableIII(), RenderGordonBellReview(),
	}
	for i, s := range outputs {
		if len(s) < 80 {
			t.Errorf("renderer %d produced %q", i, s)
		}
	}
	if !strings.Contains(d.RenderFigure1(), "active") {
		t.Error("Figure 1 missing labels")
	}
	if !strings.Contains(RenderTableIII(), "2018") {
		t.Error("Table III missing years")
	}
}

func TestSubdomainCountsConsistent(t *testing.T) {
	d := study()
	t2 := TableII()
	for _, dom := range Domains() {
		counts := map[string]int{}
		for _, p := range d.NonGB() {
			if p.Domain == dom {
				counts[p.Subdomain]++
			}
		}
		total := 0
		valid := map[string]bool{}
		for _, s := range t2[dom] {
			valid[s] = true
		}
		for sub, c := range counts {
			if !valid[sub] {
				t.Fatalf("domain %s has unknown subdomain %q", dom, sub)
			}
			total += c
		}
		// Totals must match Figure 4's domain counts.
		f4 := d.Figure4()[dom]
		if want := f4[Active] + f4[Inactive] + f4[None]; total != want {
			t.Fatalf("domain %s subdomain total %d vs figure-4 %d", dom, total, want)
		}
	}
}
