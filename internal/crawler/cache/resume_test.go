package cache_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func cachedRig(t testing.TB) (*osn.Platform, *cache.Cache) {
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
	return p, cache.New(d)
}

// publicFriendList finds an adult account holder whose friend list is
// public and spans more than two pages.
func publicFriendList(p *osn.Platform) (osn.PublicID, int) {
	w := p.World()
	for _, person := range w.People {
		if person.HasAccount && !person.RegisteredMinorAt(w.Now) &&
			person.Privacy.FriendListPublic && w.Frozen().Degree(person.ID) > 45 {
			id, _ := p.PublicIDOf(person.ID)
			return id, w.Frozen().Degree(person.ID)
		}
	}
	return "", 0
}

// walkTotal walks id's friend list to its last page and returns the number
// of entries.
func walkTotal(t *testing.T, c *cache.Cache, id osn.PublicID) int {
	t.Helper()
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
	if h := c.Stats().Hits; h.ProfileRequests != 1 {
		t.Fatalf("hits %+v", h)
	}
}

func TestCachedClientFriendAssemblyAndHit(t *testing.T) {
	p, c := cachedRig(t)
	id, degree := publicFriendList(p)
	if id == "" {
		t.Skip("no suitable user")
	}
	if got := walkTotal(t, c, id); got != degree {
		t.Fatalf("first walk %d, degree %d", got, degree)
	}
	if h := c.Stats().Hits.FriendListRequests; h != 0 {
		t.Fatalf("first walk should be all misses, hits %d", h)
	}
	if got := walkTotal(t, c, id); got != degree {
		t.Fatalf("cached walk %d, degree %d", got, degree)
	}
	if st := c.Stats(); st.Hits.FriendListRequests != st.Misses.FriendListRequests {
		t.Fatalf("second walk hit the platform: %+v", st)
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
	if h := c.Stats().Hits; h.FriendListRequests != 1 {
		t.Fatalf("hidden verdict not memoized: %+v", h)
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
	saved1 := c.Stats().Hits
	res2, err := core.Run(crawler.NewSession(c), params)
	if err != nil {
		t.Fatal(err)
	}
	saved2 := c.Stats().Hits
	if len(res1.Ranked) != len(res2.Ranked) {
		t.Fatal("cached re-run changed the result")
	}
	savedByRun2 := saved2.Total() - saved1.Total()
	if savedByRun2 < res2.Effort.Total()/2 {
		t.Fatalf("cache absorbed only %d of %d requests", savedByRun2, res2.Effort.Total())
	}
	t.Logf("second run: %d logical requests, %d served from the cache",
		res2.Effort.Total(), savedByRun2)
}

// TestCachedClientResumesPartialWalk interrupts a friend-list walk mid-way,
// restores the cache from its archive (as a killed and restarted crawl
// does), and verifies the resumed walk serves the fetched prefix locally,
// fetches only the remaining pages, and leaves the list complete.
func TestCachedClientResumesPartialWalk(t *testing.T) {
	p, c := cachedRig(t)
	id, degree := publicFriendList(p)
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
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := crawler.NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingClient{Client: d}
	c2, err := cache.ReadJSON(&buf, counting)
	if err != nil {
		t.Fatal(err)
	}
	if got := walkTotal(t, c2, id); got != degree {
		t.Fatalf("resumed walk %d, degree %d", got, degree)
	}
	if h := c2.Stats().Hits; h.FriendListRequests != 2 {
		t.Fatalf("checkpointed prefix not served locally: hits %+v", h)
	}
	wantInner := (degree+19)/20 - 2
	if counting.friendCalls != wantInner {
		t.Fatalf("resumed walk issued %d platform fetches, want %d", counting.friendCalls, wantInner)
	}
	// The completed walk left a complete list: walking it again is local.
	if got := walkTotal(t, c2, id); got != degree || counting.friendCalls != wantInner {
		t.Fatalf("re-walk %d of %d, %d platform fetches", got, degree, counting.friendCalls)
	}
	if n := c2.Contents(); n.FriendLists != 1 || n.PartialLists != 0 {
		t.Fatalf("checkpoint lingered after completion: %+v", n)
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
// its archive, must not re-fetch any profile or friend page the first run
// archived, and must end with the same result and the same Table 3 effort
// as an uninterrupted run. At 7-friend pages the effort check catches a
// replay that re-paginates archived lists.
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
	for _, pageSize := range []int{20, 7} {
		t.Run(fmt.Sprintf("page%d", pageSize), func(t *testing.T) {
			newDirect := func() crawler.Client {
				p := osn.NewPlatform(w, osn.Facebook(), osn.Config{FriendPageSize: pageSize})
				d, err := crawler.NewDirect(p, 2)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			resumeMatchesUninterrupted(t, newDirect, params)
		})
	}
}

func resumeMatchesUninterrupted(t *testing.T, newDirect func() crawler.Client, params core.Params) {
	// Reference: an uninterrupted run.
	ref, err := core.Run(crawler.NewSession(newDirect()), params)
	if err != nil {
		t.Fatal(err)
	}
	refFetches := ref.Effort.ProfileRequests + ref.Effort.FriendListRequests

	// First run: cancelled roughly halfway through its fetches.
	rec := newRecordingClient(newDirect())
	c1 := cache.New(rec)
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
	_, err = core.RunContext(ctx, crawler.NewSession(c1), params)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: got %v, want context.Canceled", err)
	}
	if c1.Contents().Profiles == 0 {
		t.Fatal("cancelled run checkpointed nothing; cancellation fired too early to test resume")
	}

	// Snapshot what the first run fetched, then resume from its archive
	// with the same recorder still counting.
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
	if err := c1.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := cache.ReadJSON(&buf, rec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(crawler.NewSession(c2), params)
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

	// The resumed run reaches the same verdicts, at the same cost, as the
	// uninterrupted one.
	if res.Effort != ref.Effort {
		t.Errorf("resumed run's effort %+v, uninterrupted %+v", res.Effort, ref.Effort)
	}
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
