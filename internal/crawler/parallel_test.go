package crawler

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

func poolRig(t testing.TB, cfg osn.Config) (*osn.Platform, *Session) {
	t.Helper()
	p := testWorldPlatform(t, cfg)
	d, err := NewDirect(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p, NewSession(d)
}

func accountIDs(t testing.TB, p *osn.Platform, limit int) []osn.PublicID {
	t.Helper()
	var ids []osn.PublicID
	for _, person := range p.World().People {
		if !person.HasAccount {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		ids = append(ids, id)
		if len(ids) == limit {
			break
		}
	}
	return ids
}

func TestFetcherProfilesAligned(t *testing.T) {
	p, s := poolRig(t, osn.Config{})
	ids := accountIDs(t, p, 60)
	profiles, err := fetchProfiles(context.Background(), s, 8, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != len(ids) {
		t.Fatalf("got %d profiles for %d ids", len(profiles), len(ids))
	}
	for i, pp := range profiles {
		if pp == nil || pp.ID != ids[i] {
			t.Fatalf("slot %d misaligned: %v", i, pp)
		}
	}
	if got := s.Effort().ProfileRequests; got != len(ids) {
		t.Fatalf("effort %d, want %d", got, len(ids))
	}
}

func TestFetcherMatchesSequential(t *testing.T) {
	p, s := poolRig(t, osn.Config{})
	d, err := NewDirect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSession(d)
	ids := accountIDs(t, p, 40)
	par, err := fetchProfiles(context.Background(), s, 6, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := seq.FetchProfile(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if *par[i] != *want {
			// Birthday is a pointer; compare fields that matter.
			if par[i].Name != want.Name || par[i].HighSchool != want.HighSchool {
				t.Fatalf("six-worker and one-worker views differ for %s", id)
			}
		}
	}
}

func TestFetcherFriendListsHiddenNil(t *testing.T) {
	p, s := poolRig(t, osn.Config{FriendPageSize: 9})
	w := p.World()
	var ids []osn.PublicID
	var wantHidden []bool
	for _, person := range w.People {
		if !person.HasAccount {
			continue
		}
		id, _ := p.PublicIDOf(person.ID)
		ids = append(ids, id)
		hidden := person.RegisteredMinorAt(w.Now) || !person.Privacy.FriendListPublic
		wantHidden = append(wantHidden, hidden)
		if len(ids) == 80 {
			break
		}
	}
	lists, err := fetchFriendLists(context.Background(), s, 4, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if wantHidden[i] && lists[i] != nil {
			t.Fatalf("hidden list %s not nil", ids[i])
		}
		if !wantHidden[i] {
			if lists[i] == nil {
				t.Fatalf("visible list %s is nil", ids[i])
			}
			u, _ := p.UserIDOf(ids[i])
			if len(lists[i]) != w.Frozen().Degree(u) {
				t.Fatalf("list %s has %d entries, degree %d", ids[i], len(lists[i]), w.Frozen().Degree(u))
			}
		}
	}
}

func TestFetcherErrorPropagates(t *testing.T) {
	_, s := poolRig(t, osn.Config{})
	_, err := fetchProfiles(context.Background(), s, 4, []osn.PublicID{"does-not-exist"})
	if err == nil || !strings.Contains(err.Error(), "does-not-exist") {
		t.Fatalf("got %v", err)
	}
}

func TestFetcherAllAccountsSuspended(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{RequestBudget: 4})
	d, err := NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := accountIDs(t, p, 60)
	if _, err := fetchProfiles(context.Background(), NewSession(d), 4, ids); err == nil {
		t.Fatal("expected failure once every account is suspended")
	}
}

func TestFetcherOverHTTPConcurrency(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 123)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	srv := httptest.NewServer(osnhttp.NewServer(p))
	defer srv.Close()
	c := osnhttp.NewClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(3); err != nil {
		t.Fatal(err)
	}
	var ids []osn.PublicID
	for _, person := range w.People {
		if person.HasAccount {
			id, _ := p.PublicIDOf(person.ID)
			ids = append(ids, id)
		}
		if len(ids) == 150 {
			break
		}
	}
	profiles, err := fetchProfiles(context.Background(), NewSession(c), 10, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if profiles[i] == nil || profiles[i].ID != ids[i] {
			t.Fatalf("slot %d wrong over HTTP", i)
		}
	}
}

// TestFetcherMinWorkers: a non-positive width is a one-worker pool, and
// every item runs exactly once at any width.
func TestFetcherMinWorkers(t *testing.T) {
	_, s := poolRig(t, osn.Config{})
	for _, workers := range []int{-1, 0, 1, 3, 50} {
		const n = 17
		var runs [n]atomic.Int32
		if err := s.ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}
