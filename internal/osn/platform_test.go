package osn

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"testing"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
	"hsprofiler/internal/worldgen"
)

func testPlatform(t testing.TB, cfg Config) *Platform {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlatform(w, Facebook(), cfg)
}

func attacker(t testing.TB, p *Platform) string {
	t.Helper()
	tok, err := p.RegisterAccount("eve", sim.Date{Year: 1985, Month: 1, Day: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestCOPPAAgeGate(t *testing.T) {
	p := testPlatform(t, Config{})
	// A truthful 11-year-old is rejected — the gate whose circumvention
	// drives the whole paper.
	_, err := p.RegisterAccount("kid", sim.Date{Year: 2001, Month: 1, Day: 1})
	if !errors.Is(err, ErrUnderage) {
		t.Fatalf("got %v, want ErrUnderage", err)
	}
	// Exactly 13 is accepted.
	if _, err := p.RegisterAccount("teen", sim.Date{Year: 1999, Month: 3, Day: 1}); err != nil {
		t.Fatalf("13-year-old rejected: %v", err)
	}
	// A lying 11-year-old claiming 1990 gets in: the gate checks only the
	// *claimed* date.
	if _, err := p.RegisterAccount("liar", sim.Date{Year: 1990, Month: 1, Day: 1}); err != nil {
		t.Fatalf("lying underage registration rejected: %v", err)
	}
}

func TestUnauthorizedToken(t *testing.T) {
	p := testPlatform(t, Config{})
	if _, _, err := p.SchoolSearch("bogus", 0, 0); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("got %v", err)
	}
	if _, err := p.Profile("bogus", "u1"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("got %v", err)
	}
}

func TestSearchNeverReturnsRegisteredMinors(t *testing.T) {
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	page := 0
	for {
		res, more, err := p.SchoolSearch(tok, 0, page)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			u, ok := p.UserIDOf(r.ID)
			if !ok {
				t.Fatalf("search returned unknown id %q", r.ID)
			}
			if p.World().People[u].RegisteredMinorAt(p.World().Now) {
				t.Fatalf("registered minor %d leaked into search results", u)
			}
		}
		if !more {
			break
		}
		page++
	}
}

func TestSearchReturnsLyingMinors(t *testing.T) {
	// The attack's precondition: some *true* minors (registered adults)
	// appear in the school search.
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	found := 0
	page := 0
	for {
		res, more, err := p.SchoolSearch(tok, 0, page)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			u, _ := p.UserIDOf(r.ID)
			if p.World().People[u].MinorRegisteredAsAdultAt(p.World().Now) {
				found++
			}
		}
		if !more {
			break
		}
		page++
	}
	if found == 0 {
		t.Fatal("no lying minors in search results; attack precondition absent")
	}
}

func TestSearchPerAccountViewsDiffer(t *testing.T) {
	p := testPlatform(t, Config{SearchPerAccount: 30})
	collect := func(tok string) map[PublicID]bool {
		out := map[PublicID]bool{}
		for page := 0; ; page++ {
			res, more, err := p.SchoolSearch(tok, 0, page)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				out[r.ID] = true
			}
			if !more {
				return out
			}
		}
	}
	a := collect(attacker(t, p))
	b := collect(attacker(t, p))
	if len(a) == 0 || len(a) > 30 {
		t.Fatalf("account view size %d", len(a))
	}
	diff := 0
	for id := range b {
		if !a[id] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("second account saw nothing new; multi-account seeding would be pointless")
	}
}

func TestSearchViewDeterministicPerAccount(t *testing.T) {
	p := testPlatform(t, Config{SearchPerAccount: 25})
	tok := attacker(t, p)
	r1, _, err := p.SchoolSearch(tok, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := p.SchoolSearch(tok, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatal("same account, same page, different result size")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same account, same page, different results")
		}
	}
}

func TestSearchUnknownSchool(t *testing.T) {
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	if _, _, err := p.SchoolSearch(tok, 7, 0); !errors.Is(err, ErrNoSchool) {
		t.Fatalf("got %v", err)
	}
}

func TestMinorProfileIsMinimal(t *testing.T) {
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	w := p.World()
	checked := 0
	for _, person := range w.People {
		if !person.HasAccount || !person.RegisteredMinorAt(w.Now) {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		pp, err := p.Profile(tok, id)
		if err != nil {
			t.Fatal(err)
		}
		if !pp.Minimal() {
			t.Fatalf("registered minor %d has non-minimal profile: %+v", person.ID, pp)
		}
		if pp.Name == "" {
			t.Fatal("even minimal profiles show a name")
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no registered minors checked")
	}
}

func TestAdultProfileRespectsSettings(t *testing.T) {
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	w := p.World()
	sawSchool, sawHidden := false, false
	for _, person := range w.People {
		if !person.HasAccount || person.RegisteredMinorAt(w.Now) {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		pp, err := p.Profile(tok, id)
		if err != nil {
			t.Fatal(err)
		}
		if person.ListsSchool && person.SchoolID >= 0 {
			if pp.HighSchool != w.Schools[person.SchoolID].Name || pp.GradYear != person.GradYear {
				t.Fatalf("adult lister %d: school %q year %d", person.ID, pp.HighSchool, pp.GradYear)
			}
			sawSchool = true
		} else if pp.HighSchool != "" {
			t.Fatalf("adult non-lister %d exposes school", person.ID)
		}
		if pp.FriendListVisible != person.Privacy.FriendListPublic {
			t.Fatalf("friend list visibility mismatch for %d", person.ID)
		}
		if !person.Privacy.FriendListPublic {
			sawHidden = true
		}
		if pp.Birthday != nil && *pp.Birthday != person.RegisteredBirth {
			t.Fatalf("profile leaks true birthday for %d", person.ID)
		}
	}
	if !sawSchool || !sawHidden {
		t.Error("test world lacked coverage of both setting states")
	}
}

func TestProfileNotFound(t *testing.T) {
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	if _, err := p.Profile(tok, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestFriendPagePaginationAndHiding(t *testing.T) {
	p := testPlatform(t, Config{FriendPageSize: 5})
	tok := attacker(t, p)
	w := p.World()
	var open, hidden socialgraph.UserID = -1, -1
	for _, person := range w.People {
		if !person.HasAccount || person.RegisteredMinorAt(w.Now) {
			continue
		}
		if person.Privacy.FriendListPublic && w.Frozen().Degree(person.ID) > 12 && open < 0 {
			open = person.ID
		}
		if !person.Privacy.FriendListPublic && hidden < 0 {
			hidden = person.ID
		}
	}
	if open < 0 || hidden < 0 {
		t.Fatal("world lacks needed users")
	}

	id, _ := p.PublicIDOf(open)
	var got []FriendRef
	for page := 0; ; page++ {
		fs, more, err := p.FriendPage(tok, id, page)
		if err != nil {
			t.Fatal(err)
		}
		if more && len(fs) != 5 {
			t.Fatalf("non-final page has %d entries", len(fs))
		}
		got = append(got, fs...)
		if !more {
			break
		}
	}
	if len(got) != w.Frozen().Degree(open) {
		t.Fatalf("paginated %d friends, degree %d", len(got), w.Frozen().Degree(open))
	}

	hid, _ := p.PublicIDOf(hidden)
	if _, _, err := p.FriendPage(tok, hid, 0); !errors.Is(err, ErrHidden) {
		t.Fatalf("hidden list served: %v", err)
	}
}

func TestRegisteredMinorFriendListAlwaysHidden(t *testing.T) {
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	w := p.World()
	checked := 0
	for _, person := range w.People {
		if !person.HasAccount || !person.RegisteredMinorAt(w.Now) || !person.Privacy.FriendListPublic {
			continue
		}
		// Even with the setting enabled, policy hides a minor's list.
		id, _ := p.PublicIDOf(person.ID)
		if _, _, err := p.FriendPage(tok, id, 0); !errors.Is(err, ErrHidden) {
			t.Fatalf("minor %d friend list served: %v", person.ID, err)
		}
		checked++
		if checked > 20 {
			break
		}
	}
	if checked == 0 {
		t.Skip("no registered minors with public-list setting in this seed")
	}
}

func TestReverseLookupCountermeasure(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	pol := Facebook()
	pol.HiddenListsInReverseLookup = false
	p := NewPlatform(w, pol, Config{FriendPageSize: 1000})
	tok := attacker(t, p)
	for _, person := range w.People {
		if !person.HasAccount || person.RegisteredMinorAt(w.Now) || !person.Privacy.FriendListPublic {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		fs, _, err := p.FriendPage(tok, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			fu, _ := p.UserIDOf(f.ID)
			fp := w.People[fu]
			if fp.RegisteredMinorAt(w.Now) {
				t.Fatalf("countermeasure leaked registered minor %d in a friend list", fu)
			}
			if !fp.Privacy.FriendListPublic {
				t.Fatalf("countermeasure leaked hidden-list user %d", fu)
			}
		}
	}
}

func TestRequestBudgetSuspension(t *testing.T) {
	p := testPlatform(t, Config{RequestBudget: 3})
	tok := attacker(t, p)
	for i := 0; i < 3; i++ {
		if _, _, err := p.SchoolSearch(tok, 0, 0); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	if _, _, err := p.SchoolSearch(tok, 0, 0); !errors.Is(err, ErrSuspended) {
		t.Fatalf("got %v, want ErrSuspended", err)
	}
	// Suspension is sticky.
	if _, err := p.Profile(tok, "x"); !errors.Is(err, ErrSuspended) {
		t.Fatalf("got %v, want ErrSuspended", err)
	}
}

func TestPublicIDsStableAndUnique(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewPlatform(w, Facebook(), Config{})
	p2 := NewPlatform(w, Facebook(), Config{})
	seen := map[PublicID]bool{}
	for _, person := range w.People {
		id1, ok1 := p1.PublicIDOf(person.ID)
		id2, ok2 := p2.PublicIDOf(person.ID)
		if ok1 != person.HasAccount || ok2 != ok1 {
			t.Fatalf("PublicIDOf(%d) ok=%v/%v, HasAccount=%v", person.ID, ok1, ok2, person.HasAccount)
		}
		if ok1 {
			if id1 != id2 {
				t.Fatal("public IDs differ across platform instances over same world")
			}
			if seen[id1] {
				t.Fatalf("duplicate public ID %q", id1)
			}
			seen[id1] = true
			back, ok := p1.UserIDOf(id1)
			if !ok || back != person.ID {
				t.Fatal("UserIDOf does not invert PublicIDOf")
			}
		}
	}
}

func TestLookupSchool(t *testing.T) {
	p := testPlatform(t, Config{})
	refs := p.Schools()
	if len(refs) != 1 {
		t.Fatalf("schools: %d", len(refs))
	}
	got, err := p.LookupSchool(refs[0].Name)
	if err != nil || got.ID != 0 {
		t.Fatalf("lookup: %+v err %v", got, err)
	}
	if _, err := p.LookupSchool("No Such High"); !errors.Is(err, ErrNoSchool) {
		t.Fatalf("got %v", err)
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := testPlatform(t, osn_testFriendPage{}.cfg())
	if p.Policy().Name != "Facebook" {
		t.Fatal("Policy accessor wrong")
	}
	if p.FriendPageSize() != 20 {
		t.Fatalf("FriendPageSize %d", p.FriendPageSize())
	}
	tok := attacker(t, p)
	if p.RequestsServed(tok) != 0 {
		t.Fatal("fresh account has requests")
	}
	p.SchoolSearch(tok, 0, 0)
	if p.RequestsServed(tok) != 1 {
		t.Fatalf("requests served %d", p.RequestsServed(tok))
	}
	if p.RequestsServed("ghost") != 0 {
		t.Fatal("ghost account has requests")
	}
}

// helper keeping the default config expression readable above
type osn_testFriendPage struct{}

func (osn_testFriendPage) cfg() Config { return Config{} }

// TestPublicIDsMatchSequentialDraw holds the public IDs, drawn while the
// first epoch builds, to referencePublicIDs, the draw made alone: the same
// pub and byPub, and every first-epoch profile carrying its holder's ID.
// Tiny and HS1 worlds.
func TestPublicIDsMatchSequentialDraw(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  worldgen.Config
		seed uint64
	}{
		{"tiny", worldgen.TinyConfig(), 99},
		{"hs1", worldgen.HS1Config(), 2013},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := worldgen.GenerateParallel(tc.cfg, tc.seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			p := NewPlatform(w, Facebook(), Config{})
			pub, byPub := referencePublicIDs(w)
			if !slices.Equal(p.pub, pub) {
				t.Fatal("pub differs from the sequential draw")
			}
			if !maps.Equal(p.byPub, byPub) {
				t.Fatal("byPub differs from the sequential draw")
			}
			for u, pp := range p.cur.Load().read.profiles {
				if (pp == nil) != (pub[u] == "") {
					t.Fatalf("user %d: profile %v, public ID %q", u, pp != nil, pub[u])
				}
				if pp != nil && pp.ID != pub[u] {
					t.Fatalf("user %d: profile ID %q, drawn %q", u, pp.ID, pub[u])
				}
			}
		})
	}
}

// referencePublicIDs draws w's public IDs one account holder at a time, in
// ID order, from the seed's "publicids" stream: each a "u" and 40 random
// bits in base 36, drawn again while taken.
func referencePublicIDs(w *worldgen.World) ([]PublicID, map[PublicID]socialgraph.UserID) {
	rng := sim.New(w.Seed).Stream("publicids")
	pub := make([]PublicID, len(w.People))
	byPub := make(map[PublicID]socialgraph.UserID)
	for _, person := range w.People {
		if !person.HasAccount {
			continue
		}
		for {
			id := PublicID("u" + strconv.FormatUint(rng.Uint64()&0xffffffffff, 36))
			if _, taken := byPub[id]; !taken {
				pub[person.ID] = id
				byPub[id] = person.ID
				break
			}
		}
	}
	return pub, byPub
}
