package osnhttp

import (
	"errors"
	"net/http/httptest"
	"testing"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func testServer(t testing.TB, cfg osn.Config) (*osn.Platform, *Client) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), cfg)
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(2); err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestRegisterAndAccounts(t *testing.T) {
	_, c := testServer(t, osn.Config{})
	if c.Accounts() != 2 {
		t.Fatalf("accounts: %d", c.Accounts())
	}
}

func TestLookupSchoolOverHTTP(t *testing.T) {
	p, c := testServer(t, osn.Config{})
	want := p.Schools()[0]
	got, err := c.LookupSchool(want.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if _, err := c.LookupSchool("Nowhere High"); !errors.Is(err, osn.ErrNoSchool) {
		t.Fatalf("got %v", err)
	}
}

// TestSearchParityWithDirect is the load-bearing test of the HTTP layer: the
// crawler must see exactly what an in-process caller sees.
func TestSearchParityWithDirect(t *testing.T) {
	p, c := testServer(t, osn.Config{SearchPerAccount: 50})
	// Register a direct account whose token matches the HTTP client's
	// first account is impossible (tokens are distinct), so compare via the
	// same token: fetch through HTTP, then replay directly.
	var httpIDs []osn.PublicID
	for page := 0; ; page++ {
		res, more, err := c.Search(0, 0, page)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Name == "" {
				t.Fatal("search result missing name")
			}
			httpIDs = append(httpIDs, r.ID)
		}
		if !more {
			break
		}
	}
	if len(httpIDs) == 0 || len(httpIDs) > 50 {
		t.Fatalf("search returned %d results", len(httpIDs))
	}
	for _, id := range httpIDs {
		if _, ok := p.UserIDOf(id); !ok {
			t.Fatalf("HTTP search returned unknown id %q", id)
		}
	}
}

func TestProfileParityWithDirect(t *testing.T) {
	p, c := testServer(t, osn.Config{})
	w := p.World()
	// Directly registered account for the oracle view.
	tok, err := p.RegisterAccount("oracle", w.Now.AddYears(-30))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, person := range w.People {
		if !person.HasAccount {
			continue
		}
		if checked >= 120 {
			break
		}
		checked++
		id, _ := p.PublicIDOf(person.ID)
		want, err := p.Profile(tok, id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Profile(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.Gender != want.Gender ||
			got.HighSchool != want.HighSchool || got.GradYear != want.GradYear ||
			got.GradSchool != want.GradSchool ||
			got.Relationship != want.Relationship || got.InterestedIn != want.InterestedIn ||
			got.Hometown != want.Hometown || got.CurrentCity != want.CurrentCity ||
			got.FriendListVisible != want.FriendListVisible ||
			got.PhotoCount != want.PhotoCount || got.ContactInfo != want.ContactInfo ||
			got.CanMessage != want.CanMessage || got.HasPhoto != want.HasPhoto ||
			got.Network != want.Network || got.Searchable != want.Searchable {
			t.Fatalf("profile mismatch for %q:\nhttp:   %+v\ndirect: %+v", id, got, want)
		}
		if (got.Birthday == nil) != (want.Birthday == nil) {
			t.Fatalf("birthday presence mismatch for %q", id)
		}
		if got.Birthday != nil && *got.Birthday != *want.Birthday {
			t.Fatalf("birthday value mismatch for %q", id)
		}
		if got.Minimal() != want.Minimal() {
			t.Fatalf("minimality mismatch for %q", id)
		}
	}
	if checked == 0 {
		t.Fatal("no profiles compared")
	}
}

func TestFriendPageParityAndErrors(t *testing.T) {
	p, c := testServer(t, osn.Config{FriendPageSize: 7})
	w := p.World()
	tok, err := p.RegisterAccount("oracle", w.Now.AddYears(-30))
	if err != nil {
		t.Fatal(err)
	}
	comparedOpen := false
	comparedHidden := false
	for _, person := range w.People {
		if !person.HasAccount {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		want, wantMore, wantErr := p.FriendPage(tok, id, 0)
		got, gotMore, gotErr := c.FriendPage(0, id, 0)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch for %q: direct %v, http %v", id, wantErr, gotErr)
		}
		if wantErr != nil {
			if errors.Is(wantErr, osn.ErrHidden) && !errors.Is(gotErr, osn.ErrHidden) {
				t.Fatalf("hidden error not mapped: %v", gotErr)
			}
			comparedHidden = true
			continue
		}
		if gotMore != wantMore || len(got) != len(want) {
			t.Fatalf("page shape mismatch for %q", id)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("friend entry mismatch for %q at %d", id, i)
			}
		}
		comparedOpen = true
		if comparedOpen && comparedHidden {
			break
		}
	}
	if !comparedOpen || !comparedHidden {
		t.Fatal("coverage gap: open and hidden lists both needed")
	}
}

func TestGraphSearchOverHTTP(t *testing.T) {
	p, c := testServer(t, osn.Config{})
	w := p.World()
	q := osn.GraphQuery{SchoolID: 0, CurrentStudents: true}
	var got []osn.SearchResult
	for page := 0; ; page++ {
		res, more, err := c.GraphSearch(0, q, page)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res...)
		if !more {
			break
		}
	}
	if len(got) == 0 {
		t.Fatal("no graph-search results over HTTP")
	}
	for _, r := range got {
		u, ok := p.UserIDOf(r.ID)
		if !ok {
			t.Fatalf("unknown id %q", r.ID)
		}
		person := w.People[u]
		if person.RegisteredMinorAt(w.Now) {
			t.Fatal("registered minor leaked over HTTP graph search")
		}
		if person.GradYear < 2012 || person.GradYear > 2015 {
			t.Fatalf("grad year %d outside current window", person.GradYear)
		}
	}
	// Unknown school maps to 404 → ErrNotFound family.
	if _, _, err := c.GraphSearch(0, osn.GraphQuery{SchoolID: 42}, 0); err == nil {
		t.Fatal("unknown school accepted over HTTP")
	}
}

func TestSuspendedMapsTo429(t *testing.T) {
	_, c := testServer(t, osn.Config{RequestBudget: 2})
	if _, _, err := c.Search(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Search(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.Search(0, 0, 0)
	if !errors.Is(err, osn.ErrSuspended) {
		t.Fatalf("got %v, want ErrSuspended", err)
	}
}

func TestUnknownAccountIndex(t *testing.T) {
	_, c := testServer(t, osn.Config{})
	if _, _, err := c.Search(5, 0, 0); err == nil {
		t.Fatal("expected error for unregistered account index")
	}
}

func TestUnderageRegistrationOverHTTP(t *testing.T) {
	p, _ := testServer(t, osn.Config{})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client(), nil)
	// Direct form post with an underage birth date.
	resp, err := c.hc.PostForm(srv.URL+"/register", map[string][]string{
		"name": {"kid"}, "birth": {"2001-05-05"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("underage registration returned %d", resp.StatusCode)
	}
}

func TestParseHelpers(t *testing.T) {
	page := `<div class="result" data-id="u1&amp;x"><span class="name">Ann &amp; Bo</span></div>
<div class="result" data-id="u2"><span class="name"> Carl </span></div>
<a class="next" href="/x">more</a>`
	ids := classDataIDs(page, "result")
	if len(ids) != 2 || ids[0] != "u1&x" || ids[1] != "u2" {
		t.Fatalf("ids: %v", ids)
	}
	names := classText(page, "name")
	if len(names) != 2 || names[0] != "Ann & Bo" || names[1] != "Carl" {
		t.Fatalf("names: %v", names)
	}
	if !hasClass(page, "next") || hasClass(page, "nexus") {
		t.Fatal("hasClass wrong")
	}
	if firstClassText(page, "missing") != "" {
		t.Fatal("missing class should yield empty")
	}
}

func TestParseProfileMinimalRoundTrip(t *testing.T) {
	body := `<html><body><div id="profile" data-id="u9">
<h1 class="name">Quiet Kid</h1>
<img class="photo" src="x.jpg">
<span class="gender">female</span>
</div></body></html>`
	pp, err := pageProfile(body, "u9")
	if err != nil {
		t.Fatal(err)
	}
	if !pp.Minimal() {
		t.Fatalf("expected minimal, got %+v", pp)
	}
	if pp.Name != "Quiet Kid" || pp.Gender != "female" || !pp.HasPhoto {
		t.Fatalf("fields wrong: %+v", pp)
	}
}

func TestCitySearchOverHTTP(t *testing.T) {
	p, c := testServer(t, osn.Config{})
	city := p.World().Schools[0].City
	res, _, err := c.CitySearch(0, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no city-search results over HTTP")
	}
	for _, r := range res {
		if _, ok := p.UserIDOf(r.ID); !ok || r.Name == "" {
			t.Fatalf("bad result %+v", r)
		}
	}
}
