package records

import (
	"context"
	"testing"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func TestVoterDBIndexes(t *testing.T) {
	db := NewVoterDB([]VoterRecord{
		{FirstName: "Ann", LastName: "Smith", City: "Oakfield", Address: "1 Elm St", BirthYear: 1970},
		{FirstName: "Bob", LastName: "Smith", City: "Oakfield", Address: "1 Elm St", BirthYear: 1968},
		{FirstName: "Cara", LastName: "Smith", City: "Mapleton", Address: "9 Oak Rd", BirthYear: 1980},
	})
	if db.Len() != 3 {
		t.Fatalf("len %d", db.Len())
	}
	if got := db.LookupLastCity("smith", "OAKFIELD"); len(got) != 2 {
		t.Fatalf("case-insensitive join returned %d", len(got))
	}
	if got := db.LookupName("ann smith"); len(got) != 1 || got[0].Address != "1 Elm St" {
		t.Fatalf("name lookup %v", got)
	}
	if got := db.LookupLastCity("Jones", "Oakfield"); got != nil {
		t.Fatalf("ghost match %v", got)
	}
}

func TestLastNameOf(t *testing.T) {
	cases := map[string]string{
		"Ann Smith":     "Smith",
		"itzann":        "",
		"Ann S.":        "",
		"Mary Jo Brown": "Brown",
	}
	for in, want := range cases {
		if got := lastNameOf(in); got != want {
			t.Errorf("lastNameOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLinkConfidenceLevels(t *testing.T) {
	db := NewVoterDB([]VoterRecord{
		{FirstName: "Ann", LastName: "Smith", City: "Oakfield", Address: "1 Elm St"},
		{FirstName: "Bob", LastName: "Smith", City: "Oakfield", Address: "7 Pine Ave"},
		{FirstName: "Joe", LastName: "Jones", City: "Oakfield", Address: "3 Oak Rd"},
	})
	guesses := Link(db, []Subject{
		// Two Smith households: ambiguous without corroboration.
		{ID: "a", DisplayName: "Kid Smith", City: "Oakfield"},
		// Friend list names Ann Smith: corroborated to 1 Elm St.
		{ID: "b", DisplayName: "Kid Smith", City: "Oakfield", FriendNames: []string{"Ann Smith"}},
		// Single Jones household: unique.
		{ID: "c", DisplayName: "Kid Jones", City: "Oakfield"},
		// No record at all.
		{ID: "d", DisplayName: "Kid Brown", City: "Oakfield"},
		// Alias: unlinkable.
		{ID: "e", DisplayName: "itzkid", City: "Oakfield"},
	}, LinkOptions{})
	byID := map[string]AddressGuess{}
	for _, g := range guesses {
		byID[g.SubjectID] = g
	}
	if g := byID["a"]; g.Confidence != Ambiguous || g.Matches != 2 {
		t.Errorf("a: %+v", g)
	}
	if g := byID["b"]; g.Confidence != ParentInFriendList || g.Address != "1 Elm St" {
		t.Errorf("b: %+v", g)
	}
	if g := byID["c"]; g.Confidence != NameCityUnique || g.Address != "3 Oak Rd" {
		t.Errorf("c: %+v", g)
	}
	if _, ok := byID["d"]; ok {
		t.Error("d should have no guess")
	}
	if _, ok := byID["e"]; ok {
		t.Error("alias should be unlinkable")
	}
}

func TestLinkAmbiguousPrefersLargerHousehold(t *testing.T) {
	db := NewVoterDB([]VoterRecord{
		{FirstName: "Ann", LastName: "Smith", City: "C", Address: "1 Elm St"},
		{FirstName: "Bob", LastName: "Smith", City: "C", Address: "1 Elm St"},
		{FirstName: "Zed", LastName: "Smith", City: "C", Address: "9 Oak Rd"},
	})
	g := Link(db, []Subject{{ID: "x", DisplayName: "Kid Smith", City: "C"}}, LinkOptions{})
	if len(g) != 1 || g[0].Address != "1 Elm St" {
		t.Fatalf("guess %+v", g)
	}
}

func TestBuildVoterDBAdultsOnly(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	db := BuildVoterDB(w, 0.7, 1)
	if db.Len() == 0 {
		t.Fatal("empty roll")
	}
	// No record may belong to a minor: verify by birth year bound.
	for _, r := range db.records {
		if w.Now.Year-r.BirthYear < 18 {
			t.Fatalf("minor (born %d) on the voter roll", r.BirthYear)
		}
	}
	// Deterministic for fixed seed.
	db2 := BuildVoterDB(w, 0.7, 1)
	if db2.Len() != db.Len() {
		t.Fatal("voter roll not deterministic")
	}
}

func TestConfidenceStrings(t *testing.T) {
	if Ambiguous.String() == "" || NameCityUnique.String() == "" || ParentInFriendList.String() == "" {
		t.Error("confidence names empty")
	}
}

// TestEndToEndAddressRecovery runs the full §2 chain on a synthetic town:
// attack → dossiers → voter-roll join → recovered home addresses validated
// against ground truth.
func TestEndToEndAddressRecovery(t *testing.T) {
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
		SchoolName: w.Schools[0].Name, CurrentYear: 2012,
		Mode: core.Enhanced, MaxThreshold: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Select(60, true)
	dossier, err := extend.Build(context.Background(), sess, 1, sel)
	if err != nil {
		t.Fatal(err)
	}

	db := BuildVoterDB(w, 0.7, 99)
	var subjects []Subject
	nameOf := func(id osn.PublicID) string {
		if n, ok := dossier.FriendNames[id]; ok {
			return n
		}
		if pp := dossier.Profiles[id]; pp != nil {
			return pp.Name
		}
		return ""
	}
	for _, s := range sel {
		sub := Subject{ID: string(s.ID), DisplayName: s.Name, City: res.School.City}
		for _, f := range dossier.PublicFriends[s.ID] {
			if n := nameOf(f); n != "" {
				sub.FriendNames = append(sub.FriendNames, n)
			}
		}
		for _, f := range dossier.RecoveredFriends[s.ID] {
			if n := nameOf(f); n != "" {
				sub.FriendNames = append(sub.FriendNames, n)
			}
		}
		subjects = append(subjects, sub)
	}
	guesses := Link(db, subjects, LinkOptions{CurrentYear: 2012})
	if len(guesses) == 0 {
		t.Fatal("no addresses recovered")
	}

	correct, corroborated := 0, 0
	for _, g := range guesses {
		uid, ok := p.UserIDOf(osn.PublicID(g.SubjectID))
		if !ok {
			t.Fatalf("unknown subject %s", g.SubjectID)
		}
		person := w.Person(uid)
		if person.Role == worldgen.RoleStudent && g.Address == person.StreetAddress {
			correct++
			if g.Confidence == ParentInFriendList {
				corroborated++
			}
		}
	}
	t.Logf("address recovery: %d guesses, %d correct student addresses, %d parent-corroborated",
		len(guesses), correct, corroborated)
	if correct == 0 {
		t.Error("no correct home address recovered; the §2 threat chain is inert")
	}
}
