package experiments

import (
	"strings"
	"sync"
	"testing"
)

// Shared labs so the package's tests amortize world generation and runs.
var (
	labOnce sync.Once
	lab     *Lab
)

func sharedLab() *Lab {
	labOnce.Do(func() { lab = NewLab() })
	return lab
}

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"Birthday", "Public Search", "Contact Information"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing row %q:\n%s", want, out)
		}
	}
}

func TestTable6Renders(t *testing.T) {
	out := Table6().String()
	if !strings.Contains(out, "Google+") {
		t.Errorf("Table 6 title missing:\n%s", out)
	}
}

func TestTable2TinyShape(t *testing.T) {
	rows, tbl, err := Table2(sharedLab(), []Scenario{Tiny()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %d", len(rows))
	}
	r := rows[0]
	if r.Students != 80 {
		t.Errorf("students %d", r.Students)
	}
	if r.Seeds == 0 || r.CoreUsers == 0 || r.Candidates == 0 {
		t.Errorf("degenerate census %+v", r)
	}
	if r.ExtendedCore < r.CoreUsers {
		t.Errorf("extended core %d < core %d", r.ExtendedCore, r.CoreUsers)
	}
	// Candidates must dwarf the school (the paper's "order of magnitude").
	if r.Candidates < 3*r.Students {
		t.Errorf("candidate set %d not much larger than school %d", r.Candidates, r.Students)
	}
	if !strings.Contains(tbl.String(), "TinyHS") {
		t.Error("rendered table missing school label")
	}
}

func TestTable3EffortStructure(t *testing.T) {
	rows, _, err := Table3(sharedLab(), []Scenario{Tiny()})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.TotalBasic != r.SeedRequests+r.ProfilePages+r.FriendListGETs {
		t.Errorf("basic total %d inconsistent with parts %+v", r.TotalBasic, r)
	}
	if r.TotalEnhanced <= r.TotalBasic {
		t.Errorf("enhanced effort %d not above basic %d", r.TotalEnhanced, r.TotalBasic)
	}
	if r.Accounts != 2 {
		t.Errorf("accounts %d", r.Accounts)
	}
}

func TestTable4VariantsOrdering(t *testing.T) {
	rows, tbl, err := Table4(sharedLab(), Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("variants: %d", len(rows))
	}
	// Found counts grow with t within every variant.
	for _, r := range rows {
		for i := 1; i < len(r.Cells); i++ {
			if r.Cells[i].Found < r.Cells[i-1].Found {
				t.Errorf("%s: found not monotone in t", r.Variant)
			}
		}
		for _, c := range r.Cells {
			if c.CorrectYear > c.Found {
				t.Errorf("%s: correct-year exceeds found", r.Variant)
			}
		}
	}
	if !strings.Contains(tbl.String(), "/") {
		t.Error("x/y cells missing")
	}
}

func TestFigure1SweepMonotone(t *testing.T) {
	points, chart, err := Figure1(sharedLab(), Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].PctFound < points[i-1].PctFound-1e-9 {
			t.Error("coverage not monotone in t")
		}
	}
	last := points[len(points)-1]
	if last.PctFalsePos <= points[0].PctFalsePos {
		t.Error("false positives should grow with t")
	}
	if !strings.Contains(chart.String(), "students found") {
		t.Error("chart legend missing")
	}
}

func TestFigure2LimitedGroundTruth(t *testing.T) {
	schools, chart, err := Figure2(sharedLab(), []Scenario{Tiny()})
	if err != nil {
		t.Fatal(err)
	}
	s := schools[0]
	if s.TestUsers == 0 {
		t.Skip("tiny seed produced no held-out test users")
	}
	for _, p := range s.Points {
		if p.PctFound < 0 || p.PctFound > 100 || p.PctFalsePos < 0 || p.PctFalsePos > 100 {
			t.Errorf("out-of-range estimate %+v", p)
		}
	}
	if chart.String() == "" {
		t.Error("chart empty")
	}
}

func TestFigure3CounterfactualCostsMore(t *testing.T) {
	with, without, chart, err := Figure3(sharedLab(), Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(with) == 0 || len(without) != 3 {
		t.Fatalf("points: %d with, %d without", len(with), len(without))
	}
	// The paper's headline: at comparable coverage, without-COPPA pays far
	// more false positives. Compare the closest-coverage pair.
	bestWith := with[len(with)-1]
	bestWithout := without[0] // n=1, maximal coverage
	if bestWithout.FalsePositives <= bestWith.FalsePositives {
		t.Errorf("without-COPPA FPs (%d) should exceed with-COPPA (%d)",
			bestWithout.FalsePositives, bestWith.FalsePositives)
	}
	if !strings.Contains(chart.String(), "log10") {
		t.Error("figure 3 must use a log axis")
	}
}

func TestFigure4CountermeasureDrop(t *testing.T) {
	points, chart, err := Figure4(sharedLab(), Tiny())
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if last.WithoutReverse >= last.WithReverse {
		t.Errorf("countermeasure did not reduce coverage: %.1f vs %.1f",
			last.WithoutReverse, last.WithReverse)
	}
	if chart.String() == "" {
		t.Error("chart empty")
	}
}

func TestTable5Stats(t *testing.T) {
	cols, tbl, err := Table5(sharedLab(), []Scenario{Tiny()})
	if err != nil {
		t.Fatal(err)
	}
	c := cols[0]
	if c.Stats.Count == 0 {
		t.Fatal("no minors registered as adults")
	}
	if c.AvgRecoveredFriends <= 0 {
		t.Error("no reverse-lookup friends recovered")
	}
	if c.MinorDossiers == 0 {
		t.Error("no registered-minor dossiers")
	}
	out := tbl.String()
	for _, want := range []string{"Message link", "birthday", "reverse-lookup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing row %q", want)
		}
	}
}

func TestRegistryCoverage(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure of the paper is present.
	for _, want := range []string{"table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig3", "fig4"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if _, ok := Lookup("table4"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found a ghost")
	}
}

func TestLightExperimentsRunViaRegistry(t *testing.T) {
	// table1/table6 need no world and must run instantly via the registry.
	for _, id := range []string{"table1", "table6"} {
		e, _ := Lookup(id)
		out, err := e.Run(nil)
		if err != nil || out == "" {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRunCaching(t *testing.T) {
	l := sharedLab()
	a, err := l.Run(Tiny(), RunEnhanced)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Run(Tiny(), RunEnhanced)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs not cached")
	}
}

func TestAuxHiddenLinksTiny(t *testing.T) {
	points, tbl, err := AuxHiddenLinks(sharedLab(), Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || tbl.String() == "" {
		t.Fatal("empty aux output")
	}
	for i := 1; i < len(points); i++ {
		// Raising the threshold can only shrink the inferred set.
		if points[i].Inferred > points[i-1].Inferred {
			t.Error("inferred links grew with a stricter threshold")
		}
		if points[i].Precision < 0 || points[i].Precision > 1 ||
			points[i].Recall < 0 || points[i].Recall > 1 {
			t.Errorf("out-of-range rates %+v", points[i])
		}
	}
}

func TestAuxGooglePlusTiny(t *testing.T) {
	out, tbl, err := AuxGooglePlus(sharedLab(), Tiny(), 60)
	if err != nil {
		t.Fatal(err)
	}
	// The appendix claim: the attack transfers to Google+.
	if out.FoundFrac < 0.3 {
		t.Errorf("Google+ attack found only %.0f%%", out.FoundFrac*100)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
}

func TestAuxSeedRobustnessTiny(t *testing.T) {
	st, tbl, err := AuxSeedRobustness(Tiny(), []uint64{11, 12}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Found) != 2 {
		t.Fatalf("found %d entries", len(st.Found))
	}
	for _, f := range st.Found {
		if f <= 0 || f > 1 {
			t.Errorf("coverage %v out of range", f)
		}
	}
	if st.MeanFound <= 0 || st.StdDev < 0 {
		t.Errorf("stats %+v", st)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
}

func TestAuxCohortCoverageTiny(t *testing.T) {
	cov, tbl, err := AuxCohortCoverage(sharedLab(), Tiny(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov) != 4 {
		t.Fatalf("cohorts %d", len(cov))
	}
	totalStudents, totalFound := 0, 0
	for _, c := range cov {
		if c.Found > c.Students {
			t.Errorf("class of %d: found %d exceeds students %d", c.GradYear, c.Found, c.Students)
		}
		if c.CorrectYear > c.Found {
			t.Errorf("class of %d: correct exceeds found", c.GradYear)
		}
		totalStudents += c.Students
		totalFound += c.Found
	}
	if totalFound == 0 || totalStudents == 0 {
		t.Fatal("degenerate cohort coverage")
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
}

// TestEffortModelPredictsMeasurement validates the paper's §4.5 effort
// model A·R + |S| + |C|·f/p against the actually counted HTTP GETs.
func TestEffortModelPredictsMeasurement(t *testing.T) {
	sc := Tiny()
	res, err := sharedLab().Run(sc, RunBasic)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sharedLab().Platform(sc)
	if err != nil {
		t.Fatal(err)
	}
	world := platform.World()
	// |C|·f/p term, exactly: sum of ceil(degree/p) over seed cores whose
	// lists were fetched. Reconstruct the core set from the run: members
	// of CorePrime that came from seeds with visible lists.
	p := platform.FriendPageSize()
	predictedFriendGETs := 0
	for _, seed := range res.Seeds {
		if _, ok := res.CorePrime[seed.ID]; !ok {
			continue
		}
		uid, _ := platform.UserIDOf(seed.ID)
		person := world.Person(uid)
		if !person.Privacy.FriendListPublic || person.RegisteredMinorAt(world.Now) {
			continue
		}
		deg := world.Frozen().Degree(uid)
		pages := (deg + p - 1) / p
		if pages == 0 {
			pages = 1 // even an empty list costs one request
		}
		predictedFriendGETs += pages
	}
	if predictedFriendGETs != res.Effort.FriendListRequests {
		t.Errorf("effort model friend-list term %d, measured %d",
			predictedFriendGETs, res.Effort.FriendListRequests)
	}
	// The |S| term: one profile GET per seed.
	if res.Effort.ProfileRequests != len(res.Seeds) {
		t.Errorf("profile GETs %d, |S| = %d", res.Effort.ProfileRequests, len(res.Seeds))
	}
}

func TestAuxPolicySweepTiny(t *testing.T) {
	outcomes, tbl, err := AuxPolicySweep(sharedLab(), Tiny(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 8 {
		t.Fatalf("combos: %d", len(outcomes))
	}
	baseline := outcomes[0] // all countermeasures off
	if baseline.Failed || baseline.FoundFrac == 0 {
		t.Fatal("baseline attack failed")
	}
	for _, o := range outcomes[1:] {
		if o.Failed {
			continue // defeated outright: maximal mitigation
		}
		if o.FoundFrac > baseline.FoundFrac+0.1 {
			t.Errorf("countermeasure combo %s IMPROVED the attack: %.2f vs %.2f",
				o.Combo.Label(), o.FoundFrac, baseline.FoundFrac)
		}
	}
	// The all-countermeasures combo must be the weakest or defeated.
	last := outcomes[7]
	if !last.Failed && last.FoundFrac > baseline.FoundFrac/2 {
		t.Errorf("full stack of countermeasures left %.2f coverage (baseline %.2f)",
			last.FoundFrac, baseline.FoundFrac)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
}
