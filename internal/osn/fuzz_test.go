package osn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

// TestPolicyCapUnderSettingMutation is the policy engine's central safety
// property, tested by mutation: no matter how a registered minor's privacy
// switches are flipped, the stranger view stays minimal; and for adults,
// every shown field corresponds to an enabled setting.
//
// The platform freezes profiles at construction, so the mutation loop
// exercises profileRenderer — the exact resolution step the freeze runs per
// user — rather than rebuilding a platform per trial.
func TestPolicyCapUnderSettingMutation(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	pol := Facebook()
	p := NewPlatform(w, pol, Config{})
	render := newProfileRenderer(w, pol, p.pub, p.cur.Load().read.names)
	rng := sim.New(77)

	var holders []*worldgen.Person
	for _, person := range w.People {
		if person.HasAccount {
			holders = append(holders, person)
		}
	}
	for trial := 0; trial < 400; trial++ {
		person := holders[rng.Intn(len(holders))]
		// Mutate every switch randomly — including maximal sharing.
		person.Privacy = worldgen.PrivacySettings{
			FriendListPublic: rng.Bool(0.5),
			PublicSearch:     rng.Bool(0.5),
			MessageLink:      rng.Bool(0.5),
			ShowRelationship: rng.Bool(0.5),
			ShowInterestedIn: rng.Bool(0.5),
			ShowBirthday:     rng.Bool(0.5),
			ShowHometown:     rng.Bool(0.5),
			ShowPhotos:       rng.Bool(0.5),
			ShowContact:      rng.Bool(0.5),
			ListsNetwork:     rng.Bool(0.5),
		}
		person.ListsSchool = rng.Bool(0.5)
		person.ListsCity = rng.Bool(0.5)
		person.ListsGradSchool = rng.Bool(0.5)

		pp := render.profile(person.ID, person.RegisteredMinorAt(w.Now))
		if person.RegisteredMinorAt(w.Now) {
			if !pp.Minimal() {
				t.Fatalf("trial %d: registered minor escaped the cap: %+v (settings %+v)",
					trial, pp, person.Privacy)
			}
			if pp.Searchable {
				t.Fatalf("trial %d: registered minor searchable", trial)
			}
			continue
		}
		// Adults: every displayed field must be backed by a setting.
		if pp.HighSchool != "" && !person.ListsSchool {
			t.Fatalf("trial %d: school shown without setting", trial)
		}
		if pp.CurrentCity != "" && !person.ListsCity {
			t.Fatalf("trial %d: city shown without setting", trial)
		}
		if pp.Birthday != nil && !person.Privacy.ShowBirthday {
			t.Fatalf("trial %d: birthday shown without setting", trial)
		}
		if pp.FriendListVisible != person.Privacy.FriendListPublic {
			t.Fatalf("trial %d: friend-list visibility mismatch", trial)
		}
		if pp.ContactInfo && !person.Privacy.ShowContact {
			t.Fatalf("trial %d: contact shown without setting", trial)
		}
		if pp.CanMessage != person.Privacy.MessageLink {
			t.Fatalf("trial %d: message control mismatch", trial)
		}
	}
}

// TestGooglePlusCapUnderMutation runs the same mutation check against the
// Google+ policy: minors may expose more (per Table 6) but never beyond
// the Google+ minor cap.
func TestGooglePlusCapUnderMutation(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	pol := GooglePlus()
	p := NewPlatform(w, pol, Config{})
	render := newProfileRenderer(w, pol, p.pub, p.cur.Load().read.names)
	rng := sim.New(88)

	var minors []*worldgen.Person
	for _, person := range w.People {
		if person.HasAccount && person.RegisteredMinorAt(w.Now) {
			minors = append(minors, person)
		}
	}
	if len(minors) == 0 {
		t.Skip("no registered minors")
	}
	for trial := 0; trial < 200; trial++ {
		person := minors[rng.Intn(len(minors))]
		person.Privacy.ShowRelationship = true
		person.Privacy.ShowContact = true
		person.Privacy.ShowBirthday = rng.Bool(0.5)
		person.ListsSchool = rng.Bool(0.5)

		pp := render.profile(person.ID, person.RegisteredMinorAt(w.Now))
		// Relationship and contact are outside the G+ minor cap.
		if pp.Relationship || pp.ContactInfo {
			t.Fatalf("trial %d: G+ minor exposed capped field: %+v", trial, pp)
		}
		// School IS inside the G+ minor cap (worst case) — if set, shown.
		if person.ListsSchool && person.SchoolID >= 0 && pp.HighSchool == "" {
			t.Fatalf("trial %d: G+ minor worst-case school suppressed", trial)
		}
	}
}

// FuzzLoadedWorldServes holds a platform built over any world the JSON
// reader accepts to serving it: ReadJSON either fails with
// worldgen.ErrSnapshot, or NewPlatform builds and a registered account is
// served, without a panic, every account holder's profile and first friend
// page and every school's first search page. The seeds are a valid world
// of three people and the same world with its outside account holder,
// listed and searchable, at a school past the end of the table: the
// reader must reject it, or the build indexes its search by that school.
func FuzzLoadedWorldServes(f *testing.F) {
	if _, err := worldgen.ReadJSON(bytes.NewReader(threePeopleJSON(-1))); err != nil {
		f.Fatalf("the valid seed is rejected: %v", err)
	}
	f.Add(threePeopleJSON(-1))
	f.Add(threePeopleJSON(4))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := worldgen.ReadJSON(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, worldgen.ErrSnapshot) {
				t.Fatalf("error not typed ErrSnapshot: %v", err)
			}
			return
		}
		p := NewPlatform(w, Facebook(), Config{})
		token, err := p.RegisterAccount("fuzz", w.Now.AddYears(-30))
		if err != nil {
			t.Fatal(err)
		}
		for _, person := range w.People {
			if !person.HasAccount {
				continue
			}
			id, ok := p.PublicIDOf(person.ID)
			if !ok {
				t.Fatalf("account holder %d has no public ID", person.ID)
			}
			if prof, err := p.Profile(token, id); err != nil || prof == nil {
				t.Fatalf("profile of %d: %v", person.ID, err)
			}
			if _, _, err := p.FriendPage(token, id, 0); err != nil && !errors.Is(err, ErrHidden) {
				t.Fatalf("friend page of %d: %v", person.ID, err)
			}
		}
		for s := range w.Schools {
			if _, _, err := p.SchoolSearch(token, s, 0); err != nil {
				t.Fatalf("search of school %d: %v", s, err)
			}
		}
	})
}

// threePeopleJSON is the JSON snapshot of a valid world of three people,
// except that the outside account holder's school is outsideSchool, and
// listed: a student and an outside friend with accounts, and the
// student's parent without one.
func threePeopleJSON(outsideSchool int) []byte {
	return []byte(fmt.Sprintf(`{"version": 1, "seed": 1, "now": {"Year": 2012, "Month": 4, "Day": 1},
"schools": [{"ID": 0, "Name": "Fuzz High", "City": "Fuzzton", "GradYears": [2012, 2013, 2014, 2015]}],
"people": [
 {"ID": 0, "FirstName": "Ann", "LastName": "Lee", "Role": 0, "SchoolID": 0, "GradYear": 2014,
  "TrueBirth": {"Year": 1996, "Month": 5, "Day": 2}, "RegisteredBirth": {"Year": 1990, "Month": 5, "Day": 2},
  "HasAccount": true, "LiedAtSignup": true, "ListsSchool": true, "ListsCity": true, "CurrentCity": "Fuzzton",
  "Privacy": {"PublicSearch": true, "FriendListPublic": true, "ListsNetwork": true}},
 {"ID": 1, "FirstName": "Bo", "LastName": "Kim", "Role": 5, "SchoolID": %d,
  "TrueBirth": {"Year": 1970, "Month": 1, "Day": 1}, "RegisteredBirth": {"Year": 1970, "Month": 1, "Day": 1},
  "HasAccount": true, "ListsSchool": true, "Privacy": {"PublicSearch": true, "FriendListPublic": true}},
 {"ID": 2, "FirstName": "Cy", "LastName": "Lee", "Role": 3, "SchoolID": -1,
  "TrueBirth": {"Year": 1970, "Month": 1, "Day": 1}, "ChildIDs": [0]}],
"edges": [[0, 1]]}`, outsideSchool))
}
