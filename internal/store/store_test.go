package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func TestStoreProfileRoundTrip(t *testing.T) {
	st := New()
	pp := &osn.PublicProfile{ID: "u1", Name: "Ann", HighSchool: "X High", GradYear: 2013}
	st.PutProfile(pp)
	got, ok := st.Profile("u1")
	if !ok || got.Name != "Ann" || got.GradYear != 2013 {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
	if _, ok := st.Profile("u2"); ok {
		t.Fatal("ghost profile")
	}
}

func TestStoreFriendsAndHidden(t *testing.T) {
	st := New()
	st.PutFriends("a", []osn.FriendRef{{ID: "b", Name: "Bo"}})
	st.PutFriendsHidden("c")
	if f, hidden, ok := st.Friends("a"); !ok || hidden || len(f) != 1 {
		t.Fatalf("a: %v %v %v", f, hidden, ok)
	}
	if _, hidden, ok := st.Friends("c"); !ok || !hidden {
		t.Fatal("hidden marker lost")
	}
	if _, _, ok := st.Friends("z"); ok {
		t.Fatal("ghost list")
	}
	s := st.Stats()
	if s.FriendLists != 1 || s.HiddenLists != 1 || s.Fetches != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestStoreJSONRoundTrip(t *testing.T) {
	st := New()
	st.PutProfile(&osn.PublicProfile{ID: "u1", Name: "Ann"})
	st.PutFriends("u1", []osn.FriendRef{{ID: "u2", Name: "Bo"}})
	st.PutFriendsHidden("u3")
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != st.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", got.Stats(), st.Stats())
	}
	if pp, ok := got.Profile("u1"); !ok || pp.Name != "Ann" {
		t.Fatal("profile lost")
	}
	if _, hidden, ok := got.Friends("u3"); !ok || !hidden {
		t.Fatal("hidden marker lost in round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func cachedRig(t testing.TB) (*osn.Platform, *CachedClient) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{FriendPageSize: 20})
	d, err := crawler.NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p, NewCachedClient(d, New())
}

func TestCachedClientProfileHit(t *testing.T) {
	p, c := cachedRig(t)
	var id osn.PublicID
	for _, person := range p.World().People {
		if person.HasAccount {
			id, _ = p.PublicIDOf(person.ID)
			break
		}
	}
	a, err := c.Profile(0, id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Profile(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Fatal("cache served different data")
	}
	if c.Saved().ProfileRequests != 1 {
		t.Fatalf("saved %+v", c.Saved())
	}
}

func TestCachedClientFriendAssemblyAndHit(t *testing.T) {
	p, c := cachedRig(t)
	w := p.World()
	var id osn.PublicID
	var degree int
	for _, person := range w.People {
		if person.HasAccount && !person.RegisteredMinorAt(w.Now) &&
			person.Privacy.FriendListPublic && w.Frozen().Degree(person.ID) > 45 {
			id, _ = p.PublicIDOf(person.ID)
			degree = w.Frozen().Degree(person.ID)
			break
		}
	}
	if id == "" {
		t.Skip("no suitable user")
	}
	walk := func() int {
		total := 0
		for page := 0; ; page++ {
			batch, more, err := c.FriendPage(0, id, page)
			if err != nil {
				t.Fatal(err)
			}
			total += len(batch)
			if !more {
				return total
			}
		}
	}
	if got := walk(); got != degree {
		t.Fatalf("first walk %d, degree %d", got, degree)
	}
	saved0 := c.Saved().FriendListRequests
	if saved0 != 0 {
		t.Fatalf("first walk should be all misses, saved %d", saved0)
	}
	if got := walk(); got != degree {
		t.Fatalf("cached walk %d, degree %d", got, degree)
	}
	if c.Saved().FriendListRequests == 0 {
		t.Fatal("second walk hit the platform")
	}
}

func TestCachedClientHiddenMemoized(t *testing.T) {
	p, c := cachedRig(t)
	w := p.World()
	var id osn.PublicID
	for _, person := range w.People {
		if person.HasAccount && person.RegisteredMinorAt(w.Now) {
			id, _ = p.PublicIDOf(person.ID)
			break
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.FriendPage(0, id, 0); !errors.Is(err, osn.ErrHidden) {
			t.Fatalf("got %v", err)
		}
	}
	if c.Saved().FriendListRequests != 1 {
		t.Fatalf("hidden verdict not memoized: %+v", c.Saved())
	}
}

// TestCachedRunSavesEffort re-runs the whole attack through the cache and
// verifies the second pass costs almost nothing beyond the seed searches.
func TestCachedRunSavesEffort(t *testing.T) {
	p, c := cachedRig(t)
	params := core.Params{
		SchoolName:   p.Schools()[0].Name,
		CurrentYear:  2012,
		Mode:         core.Enhanced,
		MaxThreshold: 90,
	}
	res1, err := core.Run(crawler.NewSession(c), params)
	if err != nil {
		t.Fatal(err)
	}
	saved1 := c.Saved()
	res2, err := core.Run(crawler.NewSession(c), params)
	if err != nil {
		t.Fatal(err)
	}
	saved2 := c.Saved()
	if len(res1.Ranked) != len(res2.Ranked) {
		t.Fatal("cached re-run changed the result")
	}
	savedByRun2 := saved2.Total() - saved1.Total()
	if savedByRun2 < res2.Effort.Total()/2 {
		t.Fatalf("cache absorbed only %d of %d requests", savedByRun2, res2.Effort.Total())
	}
	t.Logf("second run: %d logical requests, %d served from the store",
		res2.Effort.Total(), savedByRun2)
}

func TestStorePartialCheckpointAndPromotion(t *testing.T) {
	st := New()
	page0 := []osn.FriendRef{{ID: "b", Name: "Bo"}, {ID: "c", Name: "Cy"}}
	page1 := []osn.FriendRef{{ID: "d", Name: "Di"}}
	st.PutPartialPage("a", 0, page0)
	st.PutPartialPage("a", 1, page1)
	// Out-of-order and duplicate writes are ignored, not corrupting.
	st.PutPartialPage("a", 0, []osn.FriendRef{{ID: "x"}})
	st.PutPartialPage("a", 5, []osn.FriendRef{{ID: "x"}})
	if n := st.PartialPages("a"); n != 2 {
		t.Fatalf("partial pages %d, want 2", n)
	}
	if got, ok := st.PartialPage("a", 1); !ok || len(got) != 1 || got[0].ID != "d" {
		t.Fatalf("page 1: %v ok=%v", got, ok)
	}
	if _, ok := st.PartialPage("a", 2); ok {
		t.Fatal("ghost partial page")
	}
	if st.Stats().PartialLists != 1 {
		t.Fatalf("stats %+v", st.Stats())
	}
	// The checkpoint survives serialization.
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PartialPages("a") != 2 {
		t.Fatal("checkpoint lost in round trip")
	}
	// Completion promotes prefix + final batch into the archive.
	got.CompleteFriends("a", []osn.FriendRef{{ID: "e", Name: "Ed"}})
	full, hidden, ok := got.Friends("a")
	if !ok || hidden || len(full) != 4 {
		t.Fatalf("promoted list: %v hidden=%v ok=%v", full, hidden, ok)
	}
	if full[0].ID != "b" || full[3].ID != "e" {
		t.Fatalf("promotion order wrong: %v", full)
	}
	if got.PartialPages("a") != 0 || got.Stats().PartialLists != 0 {
		t.Fatal("checkpoint not cleared after promotion")
	}
}

// TestCachedClientResumesPartialWalk interrupts a friend-list walk mid-way,
// rebuilds the cached client from the serialized store (simulating a killed
// and restarted crawl), and verifies the resumed walk serves the fetched
// prefix locally and only fetches the remaining pages.
func TestCachedClientResumesPartialWalk(t *testing.T) {
	p, c := cachedRig(t)
	w := p.World()
	var id osn.PublicID
	var degree int
	for _, person := range w.People {
		if person.HasAccount && !person.RegisteredMinorAt(w.Now) &&
			person.Privacy.FriendListPublic && w.Frozen().Degree(person.ID) > 45 {
			id, _ = p.PublicIDOf(person.ID)
			degree = w.Frozen().Degree(person.ID)
			break
		}
	}
	if id == "" {
		t.Skip("no suitable user")
	}
	// First run dies after fetching page 0 and page 1.
	for page := 0; page < 2; page++ {
		if _, more, err := c.FriendPage(0, id, page); err != nil || !more {
			t.Fatalf("page %d: more=%v err=%v", page, more, err)
		}
	}
	var buf bytes.Buffer
	if err := c.store.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingClient{Client: c.inner}
	c2 := NewCachedClient(counting, st2)
	total := 0
	for page := 0; ; page++ {
		batch, more, err := c2.FriendPage(0, id, page)
		if err != nil {
			t.Fatal(err)
		}
		total += len(batch)
		if !more {
			break
		}
	}
	if total != degree {
		t.Fatalf("resumed walk %d, degree %d", total, degree)
	}
	if c2.Saved().FriendListRequests != 2 {
		t.Fatalf("checkpointed prefix not served locally: saved %+v", c2.Saved())
	}
	wantInner := (degree+19)/20 - 2
	if counting.friendCalls != wantInner {
		t.Fatalf("resumed walk issued %d platform fetches, want %d", counting.friendCalls, wantInner)
	}
	// The completed walk promoted the checkpoint into the archive.
	if full, _, ok := st2.Friends(id); !ok || len(full) != degree {
		t.Fatal("resumed walk did not archive the full list")
	}
	if st2.Stats().PartialLists != 0 {
		t.Fatal("checkpoint lingered after completion")
	}
}

// countingClient counts inner friend-page fetches.
type countingClient struct {
	crawler.Client
	friendCalls int
}

func (cc *countingClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	cc.friendCalls++
	return cc.Client.FriendPage(acct, id, page)
}

// recordingClient tallies every inner platform fetch by key and fires an
// optional hook after each one (used to cancel a crawl mid-run).
type recordingClient struct {
	crawler.Client
	mu       sync.Mutex
	profiles map[osn.PublicID]int
	friends  map[string]int
	onFetch  func()
}

func newRecordingClient(inner crawler.Client) *recordingClient {
	return &recordingClient{
		Client:   inner,
		profiles: make(map[osn.PublicID]int),
		friends:  make(map[string]int),
	}
}

func (rc *recordingClient) record(tally map[string]int, key string) {
	rc.mu.Lock()
	tally[key]++
	hook := rc.onFetch
	rc.mu.Unlock()
	if hook != nil {
		hook()
	}
}

func (rc *recordingClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	rc.mu.Lock()
	rc.profiles[id]++
	hook := rc.onFetch
	rc.mu.Unlock()
	if hook != nil {
		hook()
	}
	return rc.Client.Profile(acct, id)
}

func (rc *recordingClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	rc.record(rc.friends, fmt.Sprintf("%s/%d", id, page))
	return rc.Client.FriendPage(acct, id, page)
}

// TestRunResumesFromCheckpoint is the checkpoint/resume acceptance test: a
// profiling run killed mid-crawl by context cancellation, restarted against
// the serialized store, must not re-fetch any profile or friend page the
// first run archived, and must end with the same result as an uninterrupted
// run.
func TestRunResumesFromCheckpoint(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{
		SchoolName:   w.Schools[0].Name,
		CurrentYear:  2012,
		Mode:         core.Enhanced,
		MaxThreshold: 90,
	}
	newDirect := func() crawler.Client {
		p := osn.NewPlatform(w, osn.Facebook(), osn.Config{FriendPageSize: 20})
		d, err := crawler.NewDirect(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Reference: an uninterrupted run.
	ref, err := core.Run(crawler.NewSession(NewCachedClient(newDirect(), New())), params)
	if err != nil {
		t.Fatal(err)
	}
	refFetches := ref.Effort.ProfileRequests + ref.Effort.FriendListRequests

	// First run: cancelled roughly halfway through its fetches.
	rec := newRecordingClient(newDirect())
	st1 := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fetches int
	var fetchMu sync.Mutex
	rec.onFetch = func() {
		fetchMu.Lock()
		fetches++
		kill := fetches == refFetches/2
		fetchMu.Unlock()
		if kill {
			cancel()
		}
	}
	_, err = core.RunContext(ctx, crawler.NewSession(NewCachedClient(rec, st1)), params)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: got %v, want context.Canceled", err)
	}
	if st1.Stats().Profiles == 0 {
		t.Fatal("cancelled run checkpointed nothing; cancellation fired too early to test resume")
	}

	// Snapshot what the first run fetched, then resume from the serialized
	// checkpoint with the same recorder still counting.
	rec.mu.Lock()
	rec.onFetch = nil
	run1Profiles := make(map[osn.PublicID]int, len(rec.profiles))
	for id, n := range rec.profiles {
		run1Profiles[id] = n
	}
	run1Friends := make(map[string]int, len(rec.friends))
	for k, n := range rec.friends {
		run1Friends[k] = n
	}
	rec.mu.Unlock()
	var buf bytes.Buffer
	if err := st1.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(crawler.NewSession(NewCachedClient(rec, st2)), params)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	// Nothing archived by run 1 was fetched again by run 2.
	rec.mu.Lock()
	for id, n := range run1Profiles {
		if rec.profiles[id] != n {
			t.Errorf("profile %s re-fetched on resume (%d -> %d)", id, n, rec.profiles[id])
		}
	}
	for key, n := range run1Friends {
		if rec.friends[key] != n {
			t.Errorf("friend page %s re-fetched on resume (%d -> %d)", key, n, rec.friends[key])
		}
	}
	rec.mu.Unlock()

	// The resumed run reaches the same verdicts as the uninterrupted one.
	if len(res.Ranked) != len(ref.Ranked) {
		t.Fatalf("resumed ranking has %d candidates, reference %d", len(res.Ranked), len(ref.Ranked))
	}
	for i := range res.Ranked {
		a, b := res.Ranked[i], ref.Ranked[i]
		if a.ID != b.ID || a.Score != b.Score || a.PredGradYear != b.PredGradYear {
			t.Fatalf("ranked[%d] differs: %+v vs %+v", i, a, b)
		}
	}
	gotH := res.Select(90, true)
	wantH := ref.Select(90, true)
	if len(gotH) != len(wantH) {
		t.Fatalf("selected set differs: %d vs %d", len(gotH), len(wantH))
	}
	for i := range gotH {
		if gotH[i] != wantH[i] {
			t.Fatalf("selected[%d] differs: %+v vs %+v", i, gotH[i], wantH[i])
		}
	}
}

func TestPageOfBounds(t *testing.T) {
	friends := make([]osn.FriendRef, 45)
	if _, _, err := pageOf(friends, -1); err == nil {
		t.Fatal("negative page accepted")
	}
	got, more, err := pageOf(friends, 1)
	if err != nil || len(got) != 20 || !more {
		t.Fatalf("page 1: %d more=%v err=%v", len(got), more, err)
	}
	got, more, _ = pageOf(friends, 2)
	if len(got) != 5 || more {
		t.Fatalf("final page: %d more=%v", len(got), more)
	}
	got, more, _ = pageOf(friends, 3)
	if len(got) != 0 || more {
		t.Fatal("past-the-end page should be empty")
	}
}

func TestCachedClientArchiveAndPassthrough(t *testing.T) {
	p, c := cachedRig(t)
	// Archive seeds the store directly.
	c.Archive("zz", []osn.FriendRef{{ID: "a", Name: "A"}})
	if f, hidden, ok := c.store.Friends("zz"); !ok || hidden || len(f) != 1 {
		t.Fatal("Archive did not store the list")
	}
	// Pass-throughs.
	if c.Accounts() != 2 {
		t.Fatalf("accounts %d", c.Accounts())
	}
	if _, err := c.LookupSchool(p.Schools()[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Search(0, 0, 0); err != nil {
		t.Fatal(err)
	}
}
