package core

import (
	"math"
	"strings"
	"testing"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func testRig(t testing.TB, seed uint64, accounts int, osnCfg osn.Config) (*osn.Platform, *crawler.Session) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osnCfg)
	d, err := crawler.NewDirect(p, accounts)
	if err != nil {
		t.Fatal(err)
	}
	return p, crawler.NewSession(d)
}

func runTiny(t testing.TB, seed uint64, mode Mode) (*osn.Platform, *Result) {
	t.Helper()
	p, sess := testRig(t, seed, 2, osn.Config{})
	res, err := Run(sess, Params{
		SchoolName:   p.Schools()[0].Name,
		CurrentYear:  2012,
		Mode:         mode,
		MaxThreshold: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestClassify(t *testing.T) {
	sizes := [4]int{4, 5, 0, 2}
	cases := []struct {
		hits      [4]int
		wantScore float64
		wantYear  int
	}{
		{[4]int{2, 0, 0, 0}, 0.5, 2012},
		{[4]int{0, 5, 0, 0}, 1.0, 2013},
		{[4]int{0, 0, 9, 1}, 0.5, 2015}, // cohort 2 empty: its hits are ignored
		{[4]int{1, 1, 0, 1}, 0.5, 2015}, // ties resolve to the max fraction; 1/2 beats 1/4, 1/5
		{[4]int{0, 0, 0, 0}, 0.0, 2012},
	}
	for _, c := range cases {
		score, year := classify(c.hits, sizes, 2012, RuleNormalizedMax)
		if score != c.wantScore || year != c.wantYear {
			t.Errorf("classify(%v) = (%v, %d), want (%v, %d)", c.hits, score, year, c.wantScore, c.wantYear)
		}
	}
	// All cohorts empty.
	if score, year := classify([4]int{3, 3, 3, 3}, [4]int{}, 2012, RuleNormalizedMax); score != 0 || year != 2012 {
		t.Errorf("empty cohorts: (%v, %d)", score, year)
	}
}

func TestIndicatesCurrentStudent(t *testing.T) {
	mk := func(school string, year int) *osn.PublicProfile {
		return &osn.PublicProfile{HighSchool: school, GradYear: year}
	}
	cases := []struct {
		pp   *osn.PublicProfile
		want bool
	}{
		{mk("Target High", 2012), true},
		{mk("Target High", 2015), true},
		{mk("Target High", 2016), false}, // beyond the 4-year window
		{mk("Target High", 2011), false}, // alumnus
		{mk("Other High", 2013), false},
		{mk("", 0), false},
	}
	for _, c := range cases {
		if got := IndicatesCurrentStudent(c.pp, "Target High", 2012); got != c.want {
			t.Errorf("indicates(%q, %d) = %v", c.pp.HighSchool, c.pp.GradYear, got)
		}
	}
}

func TestFilterReason(t *testing.T) {
	school := osn.SchoolRef{Name: "Target High", City: "Oakfield"}
	cases := []struct {
		pp   osn.PublicProfile
		want string
	}{
		{osn.PublicProfile{GradSchool: true}, "graduate school"},
		{osn.PublicProfile{HighSchool: "Other High", GradYear: 2013}, "different high school"},
		{osn.PublicProfile{HighSchool: "Target High", GradYear: 2010}, "grad year out of range"},
		{osn.PublicProfile{HighSchool: "Target High", GradYear: 2016}, "grad year out of range"},
		{osn.PublicProfile{CurrentCity: "Elsewhere"}, "different current city"},
		{osn.PublicProfile{HighSchool: "Target High", GradYear: 2013, CurrentCity: "Oakfield"}, ""},
		{osn.PublicProfile{}, ""}, // minimal profile: nothing to filter on
	}
	for i, c := range cases {
		if got := filterReason(&c.pp, school, 2012); got != c.want {
			t.Errorf("case %d: filterReason = %q, want %q", i, got, c.want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	p, sess := testRig(t, 1, 1, osn.Config{})
	if _, err := Run(sess, Params{SchoolName: "", CurrentYear: 2012}); err == nil {
		t.Error("empty school accepted")
	}
	if _, err := Run(sess, Params{SchoolName: "x", CurrentYear: 10}); err == nil {
		t.Error("implausible year accepted")
	}
	if _, err := Run(sess, Params{SchoolName: "x", CurrentYear: 2012, Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := Run(sess, Params{SchoolName: "No Such High", CurrentYear: 2012}); err == nil {
		t.Error("unknown school accepted")
	}
	// A NaN or infinite ε must be rejected before any crawl: with the
	// rig's real school, a basic run would otherwise succeed and an
	// enhanced one size its profile window from a garbage int.
	school := p.Schools()[0].Name
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		for _, mode := range []Mode{Basic, Enhanced} {
			if _, err := Run(sess, Params{SchoolName: school, CurrentYear: 2012, Mode: mode, Epsilon: eps}); err == nil {
				t.Errorf("%s run accepted epsilon %v", mode, eps)
			}
		}
	}
	// A huge but finite ε is valid: its window is the whole ranking.
	if _, err := Run(sess, Params{SchoolName: school, CurrentYear: 2012, Mode: Enhanced, Epsilon: 1e300}); err != nil {
		t.Errorf("epsilon 1e300: %v", err)
	}
}

func TestBasicRunShape(t *testing.T) {
	p, res := runTiny(t, 99, Basic)
	if len(res.Seeds) == 0 {
		t.Fatal("no seeds")
	}
	if res.SeedCoreSize == 0 || res.SeedCoreSize > len(res.CorePrime) {
		t.Fatalf("core sizes: seed %d, C' %d", res.SeedCoreSize, len(res.CorePrime))
	}
	if res.CandidateCount() <= len(res.CorePrime) {
		t.Fatalf("candidate set %d suspiciously small", res.CandidateCount())
	}
	// Ranking is sorted descending.
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].Score > res.Ranked[i-1].Score {
			t.Fatal("ranking not sorted")
		}
	}
	// Candidates never include self-declared students.
	for _, c := range res.Ranked {
		if _, ok := res.CorePrime[c.ID]; ok {
			t.Fatalf("candidate %s is in C'", c.ID)
		}
	}
	// Basic mode without FetchProfiles downloads only seed profiles.
	if res.Effort.ProfileRequests != len(res.Seeds) {
		t.Fatalf("profile requests %d, seeds %d", res.Effort.ProfileRequests, len(res.Seeds))
	}
	if res.Effort.FriendListRequests == 0 || res.Effort.SeedRequests == 0 {
		t.Fatal("effort categories missing")
	}
	_ = p
}

func TestScoresAreNormalizedFractions(t *testing.T) {
	_, res := runTiny(t, 99, Basic)
	for _, c := range res.Ranked {
		if c.Score < 0 || c.Score > 1 {
			t.Fatalf("score %v out of [0,1]", c.Score)
		}
		if c.PredGradYear < 2012 || c.PredGradYear > 2015 {
			t.Fatalf("predicted year %d outside window", c.PredGradYear)
		}
		// Score must equal max_i hits_i/|C_i| over non-empty cohorts.
		want, _ := classify(c.Hits, res.CohortSizes, 2012, RuleNormalizedMax)
		if c.Score != want {
			t.Fatalf("score %v inconsistent with hits %v sizes %v", c.Score, c.Hits, res.CohortSizes)
		}
	}
}

func TestEnhancedGrowsCore(t *testing.T) {
	_, basic := runTiny(t, 99, Basic)
	_, enh := runTiny(t, 99, Enhanced)
	if enh.ExtendedCoreSize < basic.ExtendedCoreSize {
		t.Fatalf("enhanced core %d < basic %d", enh.ExtendedCoreSize, basic.ExtendedCoreSize)
	}
	if enh.ExtendedCoreSize == basic.ExtendedCoreSize {
		t.Skip("seed found no promotable candidates (legal but uninformative)")
	}
	if enh.Effort.ProfileRequests <= basic.Effort.ProfileRequests {
		t.Fatal("enhanced mode did not download extra profiles")
	}
}

func TestEnhancedWindowProfilesDownloaded(t *testing.T) {
	_, res := runTiny(t, 99, Enhanced)
	window := int(float64(res.Params.MaxThreshold) * (1 + res.Params.Epsilon))
	for i, c := range res.Ranked {
		if i >= window {
			break
		}
		if c.Profile == nil {
			t.Fatalf("ranked[%d] in window lacks profile", i)
		}
		// Filter verdicts correspond to profiles.
		if got := filterReason(c.Profile, res.School, 2012); (got != "") != c.Filtered || got != c.FilterReason {
			t.Fatalf("filter verdict mismatch: %q vs flag %v / %q", got, c.Filtered, c.FilterReason)
		}
	}
}

func TestSelectSemantics(t *testing.T) {
	_, res := runTiny(t, 99, Enhanced)
	for _, filtering := range []bool{false, true} {
		sel := res.Select(10, filtering)
		coreCount := 0
		ids := map[osn.PublicID]bool{}
		for _, s := range sel {
			if ids[s.ID] {
				t.Fatalf("duplicate %s in selection", s.ID)
			}
			ids[s.ID] = true
			if s.FromCore {
				coreCount++
				if _, ok := res.CorePrime[s.ID]; !ok {
					t.Fatal("FromCore entry not in CorePrime")
				}
			}
		}
		if coreCount != len(res.CorePrime) {
			t.Fatalf("selection carries %d core users, want %d", coreCount, len(res.CorePrime))
		}
		if len(sel)-coreCount != 10 {
			t.Fatalf("selection took %d ranked users, want 10", len(sel)-coreCount)
		}
		if filtering {
			for _, s := range sel {
				if s.FromCore {
					continue
				}
				for _, c := range res.Ranked {
					if c.ID == s.ID && c.Filtered {
						t.Fatalf("filtered candidate %s selected under filtering", s.ID)
					}
				}
			}
		}
	}
	// Oversized t returns everything available without panicking.
	all := res.Select(1<<20, false)
	if len(all) != len(res.Ranked)+len(res.CorePrime) {
		t.Fatalf("oversized select returned %d", len(all))
	}
}

func TestSelectDeterministic(t *testing.T) {
	_, res := runTiny(t, 99, Basic)
	a := res.Select(25, false)
	b := res.Select(25, false)
	if len(a) != len(b) {
		t.Fatal("select not deterministic in size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("select not deterministic in order")
		}
	}
}

func TestRunDeterministicAcrossSessions(t *testing.T) {
	run := func() *Result {
		p, sess := testRig(t, 7, 2, osn.Config{})
		res, err := Run(sess, Params{
			SchoolName: p.Schools()[0].Name, CurrentYear: 2012, Mode: Enhanced, MaxThreshold: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Ranked) != len(b.Ranked) || a.ExtendedCoreSize != b.ExtendedCoreSize {
		t.Fatal("runs differ")
	}
	for i := range a.Ranked {
		if a.Ranked[i].ID != b.Ranked[i].ID || a.Ranked[i].Score != b.Ranked[i].Score {
			t.Fatalf("ranking differs at %d", i)
		}
	}
	if a.Effort != b.Effort {
		t.Fatalf("efforts differ: %+v vs %+v", a.Effort, b.Effort)
	}
}

func TestModeString(t *testing.T) {
	if Basic.String() != "basic" || Enhanced.String() != "enhanced" {
		t.Error("mode names wrong")
	}
}

func TestNoCoreUsersError(t *testing.T) {
	// A policy where no one lists their school yields no core; the run must
	// fail with a diagnostic, not return an empty inference.
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.People {
		p.ListsSchool = false
	}
	plat := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	d, err := crawler.NewDirect(plat, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(crawler.NewSession(d), Params{
		SchoolName: plat.Schools()[0].Name, CurrentYear: 2012,
	})
	if err == nil || !strings.Contains(err.Error(), "no core users") {
		t.Fatalf("got %v", err)
	}
}

// TestSuspensionPropagates ensures a mid-run suspension of every account
// surfaces as an error rather than a truncated, silently-wrong result.
func TestSuspensionPropagates(t *testing.T) {
	p, sess := testRig(t, 99, 1, osn.Config{RequestBudget: 10})
	_, err := Run(sess, Params{SchoolName: p.Schools()[0].Name, CurrentYear: 2012})
	if err == nil {
		t.Fatal("expected failure when the only account is suspended")
	}
}

func TestScoreRules(t *testing.T) {
	sizes := [4]int{4, 4, 4, 4}
	hits := [4]int{2, 1, 0, 0}
	norm, yNorm := classify(hits, sizes, 2012, RuleNormalizedMax)
	total, yTotal := classify(hits, sizes, 2012, RuleTotalHits)
	weighted, yWeighted := classify(hits, sizes, 2012, RuleWeighted)
	if norm != 0.5 {
		t.Errorf("normalized = %v", norm)
	}
	if total != 3 {
		t.Errorf("total = %v", total)
	}
	// weighted = 0.5 + 0.25*(0.75-0.5) = 0.5625
	if weighted != 0.5625 {
		t.Errorf("weighted = %v", weighted)
	}
	// Year classification is rule-independent.
	if yNorm != 2012 || yTotal != 2012 || yWeighted != 2012 {
		t.Error("year classification depends on rule")
	}
}

func TestRuleString(t *testing.T) {
	if RuleNormalizedMax.String() != "normalized-max" ||
		RuleTotalHits.String() != "total-hits" ||
		RuleWeighted.String() != "weighted" {
		t.Error("rule names wrong")
	}
}

func TestRuleChangesRanking(t *testing.T) {
	p, sess := testRig(t, 99, 2, osn.Config{})
	name := p.Schools()[0].Name
	resA, err := Run(sess, Params{SchoolName: name, CurrentYear: 2012, MaxThreshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	p2, sess2 := testRig(t, 99, 2, osn.Config{})
	resB, err := Run(sess2, Params{SchoolName: p2.Schools()[0].Name, CurrentYear: 2012, MaxThreshold: 60, Rule: RuleTotalHits})
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Ranked) != len(resB.Ranked) {
		t.Fatal("rule changed the candidate set itself")
	}
	same := true
	for i := range resA.Ranked {
		if resA.Ranked[i].ID != resB.Ranked[i].ID {
			same = false
			break
		}
	}
	if same {
		t.Error("total-hits rule produced the identical ordering (suspicious)")
	}
}

// TestSelectPrefixProperty: for t1 < t2, the ranked portion of Select(t1)
// is a prefix of Select(t2)'s — the threshold trades recall for precision
// without reshuffling.
func TestSelectPrefixProperty(t *testing.T) {
	_, res := runTiny(t, 99, Enhanced)
	for _, filtering := range []bool{false, true} {
		prev := res.Select(0, filtering)
		coreLen := len(prev)
		for _, tt := range []int{5, 10, 20, 40, 80} {
			cur := res.Select(tt, filtering)
			if len(cur) < len(prev) {
				t.Fatalf("selection shrank at t=%d", tt)
			}
			// The core block is identical; ranked entries extend.
			for i := 0; i < coreLen; i++ {
				if cur[i] != prev[i] {
					t.Fatalf("core block changed at t=%d", tt)
				}
			}
			for i := coreLen; i < len(prev); i++ {
				if cur[i] != prev[i] {
					t.Fatalf("ranked prefix changed at t=%d index %d", tt, i)
				}
			}
			prev = cur
		}
	}
}
