package worldgen

import (
	"testing"

	"hsprofiler/internal/socialgraph"
)

func tinyWorld(t testing.TB, seed uint64) *World {
	t.Helper()
	w, err := Generate(TinyConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	a := tinyWorld(t, 42)
	b := tinyWorld(t, 42)
	if len(a.People) != len(b.People) {
		t.Fatalf("population sizes differ: %d vs %d", len(a.People), len(b.People))
	}
	for i := range a.People {
		pa, pb := a.People[i], b.People[i]
		if pa.DisplayName() != pb.DisplayName() || pa.TrueBirth != pb.TrueBirth ||
			pa.RegisteredBirth != pb.RegisteredBirth || pa.Privacy != pb.Privacy ||
			pa.Role != pb.Role || pa.GradYear != pb.GradYear {
			t.Fatalf("person %d differs between identically-seeded worlds", i)
		}
	}
	if a.Frozen().NumEdges() != b.Frozen().NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Frozen().NumEdges(), b.Frozen().NumEdges())
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := tinyWorld(t, 1)
	b := tinyWorld(t, 2)
	same := 0
	n := len(a.People)
	if len(b.People) < n {
		n = len(b.People)
	}
	for i := 0; i < n; i++ {
		if a.People[i].DisplayName() == b.People[i].DisplayName() {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical name assignments")
	}
}

func TestGenerateNoSchools(t *testing.T) {
	if _, err := Generate(Config{}, 1); err == nil {
		t.Fatal("expected error for empty config")
	}
}

func TestInvariantsHold(t *testing.T) {
	w := tinyWorld(t, 7)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRosterSizes(t *testing.T) {
	cfg := TinyConfig()
	w := tinyWorld(t, 3)
	roster := w.Roster(0)
	if len(roster) != cfg.Schools[0].Students {
		t.Fatalf("roster size %d, want %d", len(roster), cfg.Schools[0].Students)
	}
	onOSN := w.RosterOnOSN(0)
	frac := float64(len(onOSN)) / float64(len(roster))
	if frac < 0.75 || frac > 1.0 {
		t.Errorf("adoption fraction %.2f outside plausible range", frac)
	}
	for _, p := range onOSN {
		if !p.HasAccount {
			t.Fatal("RosterOnOSN returned accountless student")
		}
	}
}

func TestCohortStructure(t *testing.T) {
	w := tinyWorld(t, 5)
	s := w.School(0)
	if s.GradYears != [4]int{2012, 2013, 2014, 2015} {
		t.Fatalf("grad years %v", s.GradYears)
	}
	st := w.SchoolStats(0)
	for i, n := range st.CohortSizes {
		if n < 10 {
			t.Errorf("cohort %d has only %d students", i, n)
		}
	}
	if s.CohortIndex(2013) != 1 || s.CohortIndex(2011) != -1 {
		t.Error("CohortIndex wrong")
	}
}

func TestStudentsAreMinorsMostly(t *testing.T) {
	w := tinyWorld(t, 11)
	minors, adults := 0, 0
	for _, p := range w.Roster(0) {
		if p.IsMinorAt(w.Now) {
			minors++
		} else {
			adults++
			// Only seniors can truly be adults.
			if p.GradYear != 2012 {
				t.Errorf("non-senior student (class %d) is an adult", p.GradYear)
			}
		}
	}
	if minors == 0 || adults == 0 {
		t.Errorf("degenerate age structure: %d minors, %d adults", minors, adults)
	}
}

func TestLyingDirectionAndFlag(t *testing.T) {
	w := tinyWorld(t, 13)
	liars := 0
	for _, p := range w.People {
		if !p.HasAccount {
			continue
		}
		if p.LiedAtSignup {
			liars++
			// A lie overstates age: the registered birth date must be
			// strictly earlier than the true one.
			if !p.RegisteredBirth.Before(p.TrueBirth) {
				t.Fatalf("person %d lied but registered birth %v not before true %v",
					p.ID, p.RegisteredBirth, p.TrueBirth)
			}
		} else if p.RegisteredBirth != p.TrueBirth {
			t.Fatalf("person %d has mismatched birth dates without lying", p.ID)
		}
	}
	if liars == 0 {
		t.Fatal("no one lied; the COPPA mechanism is absent")
	}
}

func TestMinorsRegisteredAsAdultsExist(t *testing.T) {
	w := tinyWorld(t, 17)
	st := w.SchoolStats(0)
	if st.MinorsRegAsAdults == 0 {
		t.Fatal("no minors registered as adults; attack precondition absent")
	}
	frac := float64(st.RegisteredAdults) / float64(st.StudentsOnOSN)
	if frac < 0.2 || frac > 0.8 {
		t.Errorf("registered-adult fraction %.2f outside calibration band", frac)
	}
}

func TestFriendshipsOnlyBetweenAccountHolders(t *testing.T) {
	w := tinyWorld(t, 19)
	for _, u := range w.Frozen().Users() {
		p := w.Person(u)
		if p == nil {
			t.Fatalf("graph user %d not a person", u)
		}
		if !p.HasAccount && w.Frozen().Degree(u) > 0 {
			t.Fatalf("accountless person %d has %d friends", u, w.Frozen().Degree(u))
		}
	}
}

func TestStudentsHaveClassmateFriends(t *testing.T) {
	w := tinyWorld(t, 23)
	inCohortTotal, n := 0, 0
	for _, p := range w.RosterOnOSN(0) {
		n++
		w.Frozen().ForEachFriend(p.ID, func(f socialgraph.UserID) {
			q := w.Person(f)
			if q.Role == RoleStudent && q.SchoolID == p.SchoolID && q.GradYear == p.GradYear {
				inCohortTotal++
			}
		})
	}
	avg := float64(inCohortTotal) / float64(n)
	want := TinyConfig().Schools[0].Friendship.InCohortDegree
	if avg < want*0.5 || avg > want*1.5 {
		t.Errorf("avg in-cohort degree %.1f, configured %.1f", avg, want)
	}
}

func TestFormerStudentsGenerated(t *testing.T) {
	w := tinyWorld(t, 29)
	st := w.SchoolStats(0)
	if st.FormerStudents == 0 {
		t.Fatal("no former students; churn model inert")
	}
	// Former students must not be on the roster.
	for _, p := range w.Roster(0) {
		if p.Role != RoleStudent {
			t.Fatalf("roster contains %s", p.Role)
		}
	}
}

func TestAlumniGradYearsInPast(t *testing.T) {
	w := tinyWorld(t, 31)
	for _, p := range w.People {
		if p.Role == RoleAlumnus && p.GradYear >= 2012 {
			t.Fatalf("alumnus with grad year %d", p.GradYear)
		}
	}
}

func TestFamiliesAreCoherent(t *testing.T) {
	// The §2 voter-roll join depends on families sharing surname, city and
	// household address.
	w := tinyWorld(t, 37)
	checked := 0
	for _, p := range w.People {
		if p.Role != RoleParent || len(p.ChildIDs) == 0 {
			continue
		}
		for _, cid := range p.ChildIDs {
			child := w.Person(cid)
			if p.LastName != child.LastName {
				t.Fatalf("parent %d last name %q, child %q", p.ID, p.LastName, child.LastName)
			}
			if p.StreetAddress == "" || p.StreetAddress != child.StreetAddress {
				t.Fatalf("family of parent %d split across addresses %q vs %q",
					p.ID, p.StreetAddress, child.StreetAddress)
			}
			if p.CurrentCity != child.CurrentCity {
				t.Fatalf("family of parent %d split across cities", p.ID)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no parents with children generated")
	}
}

func TestEveryoneHasAnAddress(t *testing.T) {
	w := tinyWorld(t, 37)
	for _, p := range w.People {
		if p.StreetAddress == "" {
			t.Fatalf("person %d has no street address", p.ID)
		}
	}
}

func TestOutsidePoolHasRegisteredMinorTeens(t *testing.T) {
	// The §7 analysis depends on the outside pool containing registered
	// minors (other-school teens): they flood the COPPA-less heuristic.
	w := tinyWorld(t, 41)
	teens, regMinorTeens := 0, 0
	for _, p := range w.People {
		if p.Role == RoleOutside && p.IsMinorAt(w.Now) {
			teens++
			if p.HasAccount && p.RegisteredMinorAt(w.Now) {
				regMinorTeens++
			}
		}
	}
	if teens == 0 || regMinorTeens == 0 {
		t.Fatalf("outside teens %d, of which registered minors %d", teens, regMinorTeens)
	}
}

func TestSchoolStatsConsistency(t *testing.T) {
	w := tinyWorld(t, 43)
	st := w.SchoolStats(0)
	if st.StudentsOnOSN != st.RegisteredAdults+st.MinimalProfiles {
		t.Errorf("students on OSN %d != adults %d + minimal %d",
			st.StudentsOnOSN, st.RegisteredAdults, st.MinimalProfiles)
	}
	if st.PublicFriendLists > st.RegisteredAdults {
		t.Error("more public friend lists than registered adults")
	}
	if st.AvgStudentDegree <= st.AvgInSchoolDegree {
		t.Error("total degree should exceed in-school degree")
	}
	sum := 0
	for _, c := range st.CohortSizes {
		sum += c
	}
	if sum != st.Students {
		t.Errorf("cohort sizes sum %d != students %d", sum, st.Students)
	}
}

func TestMultiSchoolCityWorld(t *testing.T) {
	w, err := Generate(CityConfig(3), 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Schools) != 3 {
		t.Fatalf("schools: %d", len(w.Schools))
	}
	city := w.Schools[0].City
	for _, s := range w.Schools {
		if s.City != city {
			t.Error("city schools in different cities")
		}
	}
	for i := range w.Schools {
		if len(w.Roster(i)) == 0 {
			t.Fatalf("school %d has empty roster", i)
		}
	}
}

func TestPersonAccessorsOutOfRange(t *testing.T) {
	w := tinyWorld(t, 47)
	if w.Person(-1) != nil || w.Person(socialgraph.UserID(len(w.People))) != nil {
		t.Error("out-of-range Person not nil")
	}
	if w.School(-1) != nil || w.School(99) != nil {
		t.Error("out-of-range School not nil")
	}
}

func TestAliasesAssigned(t *testing.T) {
	w := tinyWorld(t, 53)
	aliased := 0
	for _, p := range w.People {
		if p.HasAccount && p.AliasName != "" {
			aliased++
			if p.DisplayName() != p.AliasName {
				t.Fatal("DisplayName ignores alias")
			}
		}
	}
	if aliased == 0 {
		t.Error("no aliases in world; roster-matching ambiguity not modelled")
	}
}
