package extend

import (
	"context"
	"testing"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// fixture runs the attack once on the tiny world and builds the dossier.
type fixture struct {
	platform *osn.Platform
	sess     *crawler.Session
	res      *core.Result
	sel      []core.Inferred
	dossier  *Dossier
}

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	d, err := crawler.NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := crawler.NewSession(d)
	res, err := core.Run(sess, core.Params{
		SchoolName: p.Schools()[0].Name, CurrentYear: 2012,
		Mode: core.Enhanced, MaxThreshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Select(60, true)
	dossier, err := Build(context.Background(), sess, 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{platform: p, sess: sess, res: res, sel: sel, dossier: dossier}
}

func TestBuildCoversAllOfH(t *testing.T) {
	f := buildFixture(t)
	for _, s := range f.sel {
		if f.dossier.Profiles[s.ID] == nil {
			t.Fatalf("no profile for %s", s.ID)
		}
	}
}

func TestRecoveredFriendsOnlyForHidden(t *testing.T) {
	f := buildFixture(t)
	for id := range f.dossier.RecoveredFriends {
		if _, visible := f.dossier.PublicFriends[id]; visible {
			t.Fatalf("reverse lookup ran for visible-list user %s", id)
		}
		pp := f.dossier.Profiles[id]
		if pp != nil && pp.FriendListVisible {
			t.Fatalf("recovered list for user %s with visible list", id)
		}
	}
	if len(f.dossier.RecoveredFriends) == 0 {
		t.Fatal("reverse lookup recovered nothing; §6.1 mechanism inert")
	}
}

// TestRecoveredFriendsAreTrueFriends validates reverse lookup against the
// ground-truth graph: every recovered edge must be a real friendship.
func TestRecoveredFriendsAreTrueFriends(t *testing.T) {
	f := buildFixture(t)
	w := f.platform.World()
	for id, friends := range f.dossier.RecoveredFriends {
		u, ok := f.platform.UserIDOf(id)
		if !ok {
			t.Fatalf("unknown user %s", id)
		}
		for _, fid := range friends {
			v, ok := f.platform.UserIDOf(fid)
			if !ok {
				t.Fatalf("unknown friend %s", fid)
			}
			if !w.Frozen().AreFriends(u, v) {
				t.Fatalf("recovered edge %s-%s is not a true friendship", id, fid)
			}
		}
	}
}

func TestMinorProfilesContainInference(t *testing.T) {
	f := buildFixture(t)
	minors := f.dossier.MinorProfiles(f.sel, f.res.School)
	if len(minors) == 0 {
		t.Fatal("no minor profiles assembled")
	}
	for _, mp := range minors {
		if mp.HighSchool != f.res.School.Name || mp.HomeCity != f.res.School.City {
			t.Fatal("school/city inference missing")
		}
		if mp.InferredBirthYr != mp.GradYear-18 {
			t.Fatal("birth-year estimate wrong")
		}
		if mp.Name == "" {
			t.Fatal("name missing")
		}
		// The profile Facebook shows for these users is minimal, yet the
		// dossier has more: that asymmetry is the paper's point.
		pp := f.dossier.Profiles[mp.ID]
		if !pp.Minimal() {
			t.Fatal("minor profile built for non-minimal user")
		}
		if pp.HighSchool != "" {
			t.Fatal("platform leaked school directly")
		}
	}
}

// TestInferredBirthYearNearTruth checks §6's birth-year estimate against
// ground truth for correctly-found students.
func TestInferredBirthYearNearTruth(t *testing.T) {
	f := buildFixture(t)
	w := f.platform.World()
	minors := f.dossier.MinorProfiles(f.sel, f.res.School)
	good, total := 0, 0
	for _, mp := range minors {
		u, ok := f.platform.UserIDOf(mp.ID)
		if !ok {
			continue
		}
		person := w.Person(u)
		if person.Role != worldgen.RoleStudent {
			continue
		}
		total++
		diff := person.TrueBirth.Year - mp.InferredBirthYr
		if diff >= -1 && diff <= 1 {
			good++
		}
	}
	if total == 0 {
		t.Skip("no true students among minor profiles")
	}
	if frac := float64(good) / float64(total); frac < 0.7 {
		t.Errorf("birth-year estimate within ±1 for only %.0f%%", frac*100)
	}
}

func TestAvgRecoveredFriendsPositive(t *testing.T) {
	f := buildFixture(t)
	avg := f.dossier.AvgRecoveredFriends(f.sel)
	if avg <= 0 {
		t.Fatalf("avg recovered friends %v", avg)
	}
}

func TestAdultMinorTable(t *testing.T) {
	f := buildFixture(t)
	st := f.dossier.AdultMinorTable(f.sel, 2012)
	if st.Count == 0 {
		t.Fatal("no minors registered as adults in years 1-3")
	}
	for name, v := range map[string]float64{
		"friendlist": st.FriendListPublic, "search": st.PublicSearch,
		"message": st.MessageLink, "relationship": st.Relationship,
		"interested": st.InterestedIn, "birthday": st.Birthday,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s fraction %v out of range", name, v)
		}
	}
	if st.FriendListPublic > 0 && st.AvgFriendsPublic <= 0 {
		t.Error("public lists exist but average friend count is zero")
	}
	// Message links should be common for registered adults (paper: 86-91%).
	if st.MessageLink < 0.5 {
		t.Errorf("message-link fraction %.2f implausibly low", st.MessageLink)
	}
	// The empty population case degrades gracefully.
	empty := f.dossier.AdultMinorTable(nil, 2012)
	if empty.Count != 0 || empty.AvgPhotos != 0 {
		t.Error("empty selection should yield zero stats")
	}
}

func TestInferHiddenLinksPrecision(t *testing.T) {
	f := buildFixture(t)
	links := f.dossier.InferHiddenLinks(0.5, 5)
	if len(links) == 0 {
		t.Skip("no hidden links inferred at this threshold on the tiny world")
	}
	w := f.platform.World()
	correct := 0
	for _, l := range links {
		if l.A == l.B {
			t.Fatal("self link")
		}
		if l.Jaccard < 0.5 || l.Jaccard > 1 {
			t.Fatalf("jaccard %v out of range", l.Jaccard)
		}
		a, _ := f.platform.UserIDOf(l.A)
		b, _ := f.platform.UserIDOf(l.B)
		if w.Frozen().AreFriends(a, b) {
			correct++
		}
	}
	precision := float64(correct) / float64(len(links))
	t.Logf("hidden-link inference: %d links, precision %.2f", len(links), precision)
	if precision < 0.5 {
		t.Errorf("hidden-link precision %.2f below 0.5", precision)
	}
	// Results are sorted by confidence.
	for i := 1; i < len(links); i++ {
		if links[i].Jaccard > links[i-1].Jaccard {
			t.Fatal("links not sorted by Jaccard")
		}
	}
}

// TestDossierAsymmetry quantifies the paper's core §6 claim on this world:
// the dossier contains strictly more than the platform exposes for every
// registered minor found.
func TestDossierAsymmetry(t *testing.T) {
	f := buildFixture(t)
	gt := eval.NewGroundTruth(f.platform, 0)
	enriched := 0
	for _, mp := range f.dossier.MinorProfiles(f.sel, f.res.School) {
		if !gt.IsMinimalStudent(mp.ID) {
			continue // false positive; dossier still built but not counted
		}
		if mp.HighSchool != "" && mp.GradYear != 0 {
			enriched++
		}
	}
	if enriched == 0 {
		t.Fatal("no registered minor gained school+year over the minimal profile")
	}
}

func TestReachability(t *testing.T) {
	f := buildFixture(t)
	r := f.dossier.Reachability(f.sel)
	if r.Total != len(f.sel) {
		t.Fatalf("total %d, selection %d", r.Total, len(f.sel))
	}
	if r.Messageable == 0 {
		t.Error("no one messageable; registered adults should expose Message")
	}
	if r.FriendAware == 0 {
		t.Error("no known friends despite reverse lookup")
	}
	if r.FullDossier > r.Messageable || r.FullDossier > r.FriendAware {
		t.Error("conjunction exceeds its terms")
	}
	// A registered minor on Facebook is never messageable by strangers, so
	// Messageable is bounded by the non-minimal profiles.
	nonMinimal := 0
	for _, s := range f.sel {
		if pp := f.dossier.Profiles[s.ID]; pp != nil && !pp.Minimal() {
			nonMinimal++
		}
	}
	if r.Messageable > nonMinimal {
		t.Errorf("messageable %d exceeds non-minimal %d", r.Messageable, nonMinimal)
	}
	if empty := f.dossier.Reachability(nil); empty.Total != 0 || empty.Messageable != 0 {
		t.Error("empty selection should be zero")
	}
}

func TestRefinedBirthYear(t *testing.T) {
	f := buildFixture(t)
	w := f.platform.World()
	priorGood, refinedGood, total := 0, 0, 0
	for _, s := range f.sel {
		uid, ok := f.platform.UserIDOf(s.ID)
		if !ok {
			continue
		}
		person := w.Person(uid)
		if person.Role != worldgen.RoleStudent {
			continue
		}
		total++
		prior := s.GradYear - 18
		refined := f.dossier.RefinedBirthYear(s.ID, s.GradYear)
		if refined < prior-2 || refined > prior+2 {
			t.Fatalf("refined year %d strayed from prior %d", refined, prior)
		}
		if prior == person.TrueBirth.Year {
			priorGood++
		}
		if refined == person.TrueBirth.Year {
			refinedGood++
		}
	}
	if total == 0 {
		t.Skip("no students in selection")
	}
	t.Logf("birth-year exact hits: prior %d/%d, refined %d/%d", priorGood, total, refinedGood, total)
	// The refinement must not be materially worse than the prior.
	if refinedGood < priorGood-total/10 {
		t.Errorf("refinement degraded accuracy: %d vs %d of %d", refinedGood, priorGood, total)
	}
}

func TestRefinedBirthYearNoData(t *testing.T) {
	d := &Dossier{
		Profiles:         map[osn.PublicID]*osn.PublicProfile{},
		PublicFriends:    map[osn.PublicID][]osn.PublicID{},
		RecoveredFriends: map[osn.PublicID][]osn.PublicID{},
	}
	if got := d.RefinedBirthYear("x", 2014); got != 1996 {
		t.Fatalf("fallback = %d, want grad-18", got)
	}
}
