package coppaless

import (
	"testing"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func tinyWorld(t testing.TB) *worldgen.World {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func session(t testing.TB, w *worldgen.World, accounts int) (*osn.Platform, *crawler.Session) {
	t.Helper()
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	d, err := crawler.NewDirect(p, accounts)
	if err != nil {
		t.Fatal(err)
	}
	return p, crawler.NewSession(d)
}

func TestWithoutCOPPATransform(t *testing.T) {
	w := tinyWorld(t)
	cf := WithoutCOPPA(w)
	liars := 0
	for i, p := range cf.People {
		if p.HasAccount {
			if p.LiedAtSignup || p.RegisteredBirth != p.TrueBirth {
				t.Fatalf("person %d still lying in counterfactual", i)
			}
		}
		// Original world untouched.
		if w.People[i].LiedAtSignup {
			liars++
		}
	}
	if liars == 0 {
		t.Fatal("transform mutated the original world")
	}
	if cf.Frozen() != w.Frozen() {
		t.Error("counterfactual should share the friendship graph")
	}
}

func TestNoRegisteredAdultsAmongMinorsWithoutCOPPA(t *testing.T) {
	w := tinyWorld(t)
	cf := WithoutCOPPA(w)
	for _, p := range cf.People {
		if p.HasAccount && p.IsMinorAt(cf.Now) && !p.RegisteredMinorAt(cf.Now) {
			t.Fatalf("minor %d registered as adult in truthful world", p.ID)
		}
	}
}

func TestSearchYieldsNoCurrentStudentsWithoutCOPPA(t *testing.T) {
	// In the truthful world the old methodology collapses: the school
	// search returns no current students with visible friend lists except
	// true-adult seniors.
	w := tinyWorld(t)
	cf := WithoutCOPPA(w)
	p, sess := session(t, cf, 2)
	_, err := core.Run(sess, core.Params{
		SchoolName: p.Schools()[0].Name, CurrentYear: 2012, MaxThreshold: 60,
	})
	if err == nil {
		// Some seniors are genuinely 18 by March and may still seed a tiny
		// core; the run may succeed, but the core must be senior-only.
		return
	}
	// Otherwise the documented no-core failure is expected.
}

func TestNaturalApproachShape(t *testing.T) {
	w := tinyWorld(t)
	cf := WithoutCOPPA(w)
	p, sess := session(t, cf, 2)
	res, err := NaturalApproach(sess, Params{
		SchoolName: p.Schools()[0].Name, CurrentYear: 2012,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreSize == 0 || res.Candidates == 0 {
		t.Fatalf("degenerate natural approach: %+v", res)
	}
	if res.MinimalCandidates > res.Candidates {
		t.Fatal("minimal filter grew the candidate set")
	}
	g1, g2, g3 := res.Guesses(1), res.Guesses(2), res.Guesses(3)
	if len(g1) < len(g2) || len(g2) < len(g3) {
		t.Fatalf("guess sets not monotone: %d %d %d", len(g1), len(g2), len(g3))
	}
	if len(g1) != res.MinimalCandidates {
		t.Fatalf("n=1 guesses %d != minimal candidates %d", len(g1), res.MinimalCandidates)
	}
	if res.Effort.Total() == 0 {
		t.Fatal("effort not tallied")
	}
}

// TestCOPPAComparisonShape is the paper's Figure 3 claim in miniature: for
// a comparable number of discovered minimal-profile students, the
// without-COPPA heuristic pays far more false positives than the
// with-COPPA methodology.
func TestCOPPAComparisonShape(t *testing.T) {
	w := tinyWorld(t)

	// With-COPPA side: enhanced run, minimal-profile members of top-t.
	p1, sess1 := session(t, w, 2)
	res, err := core.Run(sess1, core.Params{
		SchoolName: p1.Schools()[0].Name, CurrentYear: 2012,
		Mode: core.Enhanced, MaxThreshold: 70,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt1 := eval.NewGroundTruth(p1, 0)
	withIDs, err := MinimalTopT(res, 60)
	if err != nil {
		t.Fatal(err)
	}
	withHits, withFP := 0, 0
	for _, id := range withIDs {
		if gt1.IsMinimalStudent(id) {
			withHits++
		} else {
			withFP++
		}
	}

	// Without-COPPA side.
	cf := WithoutCOPPA(w)
	p2, sess2 := session(t, cf, 2)
	nat, err := NaturalApproach(sess2, Params{
		SchoolName: p2.Schools()[0].Name, CurrentYear: 2012,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt2 := eval.NewGroundTruth(p2, 0)
	natHits, natFP := 0, 0
	for _, id := range nat.Guesses(1) {
		if gt2.IsMinimalStudent(id) {
			natHits++
		} else {
			natFP++
		}
	}
	t.Logf("with-COPPA: %d minimal students, %d FP; without: %d students, %d FP (minimal pool %d)",
		withHits, withFP, natHits, natFP, gt1.MinimalCount())
	if withHits == 0 {
		t.Fatal("with-COPPA found no minimal-profile students")
	}
	if natFP <= withFP {
		t.Errorf("counterfactual should cost more false positives: with %d vs without %d", withFP, natFP)
	}
}

func TestMinimalTopTRequiresProfiles(t *testing.T) {
	w := tinyWorld(t)
	p, sess := session(t, w, 2)
	res, err := core.Run(sess, core.Params{
		SchoolName: p.Schools()[0].Name, CurrentYear: 2012, Mode: core.Basic, MaxThreshold: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinimalTopT(res, 40); err == nil {
		t.Fatal("MinimalTopT should fail without downloaded profiles")
	}
}
