package crawler

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

// Compile-time check: both transports satisfy Client.
var (
	_ Client = (*Direct)(nil)
	_ Client = (*osnhttp.Client)(nil)
)

func testWorldPlatform(t testing.TB, cfg osn.Config) *osn.Platform {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	return osn.NewPlatform(w, osn.Facebook(), cfg)
}

func TestDirectAccountsAndErrors(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{})
	d, err := NewDirect(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accounts() != 3 {
		t.Fatalf("accounts: %d", d.Accounts())
	}
	if _, _, err := d.Search(7, 0, 0); err == nil {
		t.Fatal("expected error for bad account index")
	}
	if _, err := d.Profile(-1, "x"); err == nil {
		t.Fatal("expected error for bad account index")
	}
	if _, _, err := d.FriendPage(9, "x", 0); err == nil {
		t.Fatal("expected error for bad account index")
	}
}

func TestCollectSeedsDedupes(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{SearchPerAccount: 20})
	d, err := NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	seeds, err := s.CollectSeeds(context.Background(), 1, 0, s.AllAccounts())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[osn.PublicID]bool{}
	for _, r := range seeds {
		if seen[r.ID] {
			t.Fatalf("duplicate seed %q", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds collected")
	}
	if s.Effort().SeedRequests == 0 {
		t.Fatal("seed requests not counted")
	}
	// Two accounts must widen the union beyond one account's cap.
	s1 := NewSession(d)
	single, err := s1.CollectSeeds(context.Background(), 1, 0, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) <= len(single) {
		t.Errorf("two accounts yielded %d seeds, one account %d", len(seeds), len(single))
	}
}

func TestFetchFriendsCountsPages(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{FriendPageSize: 10})
	d, err := NewDirect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	w := p.World()
	for _, person := range w.People {
		if !person.HasAccount || person.RegisteredMinorAt(w.Now) || !person.Privacy.FriendListPublic {
			continue
		}
		deg := w.Frozen().Degree(person.ID)
		if deg < 15 {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		before := s.Effort().FriendListRequests
		friends, err := s.FetchFriends(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if len(friends) != deg {
			t.Fatalf("fetched %d friends, degree %d", len(friends), deg)
		}
		wantPages := (deg + 9) / 10
		if got := s.Effort().FriendListRequests - before; got != wantPages {
			t.Fatalf("used %d requests for %d friends with page size 10 (want %d)", got, deg, wantPages)
		}
		return
	}
	t.Skip("no suitable user in seed world")
}

func TestFetchFriendsHidden(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{})
	d, err := NewDirect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	w := p.World()
	for _, person := range w.People {
		if person.HasAccount && person.RegisteredMinorAt(w.Now) {
			id, _ := p.PublicIDOf(person.ID)
			if _, err := s.FetchFriends(context.Background(), id); !errors.Is(err, osn.ErrHidden) {
				t.Fatalf("got %v, want ErrHidden", err)
			}
			return
		}
	}
	t.Skip("no registered minor in world")
}

func TestAccountRotationOnSuspension(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{RequestBudget: 5})
	d, err := NewDirect(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	w := p.World()
	// Fetch many profiles; rotation should spread requests across accounts
	// and ride out individual suspensions.
	fetched := 0
	for _, person := range w.People {
		if !person.HasAccount {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		if _, err := s.FetchProfile(context.Background(), id); err != nil {
			// Eventually every account is suspended; that error must be the
			// explicit all-suspended one.
			if fetched < 12 {
				t.Fatalf("failed after only %d fetches: %v", fetched, err)
			}
			return
		}
		fetched++
	}
	t.Fatalf("budget never exhausted after %d fetches", fetched)
}

func TestEffortArithmetic(t *testing.T) {
	a := Effort{SeedRequests: 1, ProfileRequests: 2, FriendListRequests: 3}
	b := Effort{SeedRequests: 10, ProfileRequests: 20, FriendListRequests: 30}
	sum := a.Add(b)
	if sum != (Effort{11, 22, 33}) {
		t.Fatalf("Add = %+v", sum)
	}
	if sum.Total() != 66 {
		t.Fatalf("Total = %d", sum.Total())
	}
}

// TestHTTPAndDirectSeedParity runs seed collection through both transports
// with equivalent accounts and verifies the logical behaviour matches.
func TestHTTPAndDirectSeedParity(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{SearchPerAccount: 30})
	srv := httptest.NewServer(osnhttp.NewServer(p))
	defer srv.Close()
	hc := osnhttp.NewClient(srv.URL, srv.Client(), nil)
	if err := hc.RegisterAccounts(2); err != nil {
		t.Fatal(err)
	}
	hs := NewSession(hc)
	seeds, err := hs.CollectSeeds(context.Background(), 1, 0, hs.AllAccounts())
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds over HTTP")
	}
	// Every seed resolves to a real registered adult.
	for _, r := range seeds {
		u, ok := p.UserIDOf(r.ID)
		if !ok {
			t.Fatalf("unknown seed %q", r.ID)
		}
		if p.World().People[u].RegisteredMinorAt(w.Now) {
			t.Fatal("seed is a registered minor")
		}
	}
	if hs.Effort().SeedRequests == 0 {
		t.Fatal("HTTP effort not counted")
	}
}

func TestSessionAccessors(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{})
	d, err := NewDirect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	if s.Client() != Client(d) {
		t.Fatal("Client accessor wrong")
	}
	ref, err := s.LookupSchool(context.Background(), p.Schools()[0].Name)
	if err != nil || ref.ID != 0 {
		t.Fatalf("lookup %+v %v", ref, err)
	}
	if _, err := d.LookupSchool("nope"); err == nil {
		t.Fatal("unknown school accepted")
	}
}
