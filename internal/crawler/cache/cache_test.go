package cache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
)

// scriptClient is a minimal scriptable crawler.Client that counts every
// call reaching it, serves profiles and paginated friend lists from maps,
// and can fail a request's first N attempts.
type scriptClient struct {
	mu       sync.Mutex
	profiles map[osn.PublicID]*osn.PublicProfile
	friends  map[osn.PublicID][][]osn.FriendRef
	hidden   map[osn.PublicID]bool
	failures map[string]int // key -> remaining injected failures

	profileCalls map[osn.PublicID]int
	pageCalls    map[string]int
}

var errFlaky = errors.New("cache_test: injected failure")

func newScript() *scriptClient {
	return &scriptClient{
		profiles:     make(map[osn.PublicID]*osn.PublicProfile),
		friends:      make(map[osn.PublicID][][]osn.FriendRef),
		hidden:       make(map[osn.PublicID]bool),
		failures:     make(map[string]int),
		profileCalls: make(map[osn.PublicID]int),
		pageCalls:    make(map[string]int),
	}
}

func (s *scriptClient) Accounts() int { return 2 }

func (s *scriptClient) LookupSchool(name string) (osn.SchoolRef, error) {
	return osn.SchoolRef{ID: 1, Name: name}, nil
}

func (s *scriptClient) Search(acct, schoolID, page int) ([]osn.SearchResult, bool, error) {
	return nil, false, nil
}

func (s *scriptClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profileCalls[id]++
	if n := s.failures["profile/"+string(id)]; n > 0 {
		s.failures["profile/"+string(id)] = n - 1
		return nil, errFlaky
	}
	pp, ok := s.profiles[id]
	if !ok {
		return nil, osn.ErrNotFound
	}
	return pp, nil
}

func (s *scriptClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fmt.Sprintf("friends/%s/%d", id, page)
	s.pageCalls[key]++
	if n := s.failures[key]; n > 0 {
		s.failures[key] = n - 1
		return nil, false, errFlaky
	}
	if s.hidden[id] {
		return nil, false, osn.ErrHidden
	}
	pages := s.friends[id]
	if page >= len(pages) {
		return nil, false, nil
	}
	return pages[page], page < len(pages)-1, nil
}

func (s *scriptClient) calls(id osn.PublicID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.profileCalls[id]
}

func (s *scriptClient) pages(id osn.PublicID, page int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pageCalls[fmt.Sprintf("friends/%s/%d", id, page)]
}

func TestProfileMemoized(t *testing.T) {
	inner := newScript()
	inner.profiles["a"] = &osn.PublicProfile{ID: "a", Name: "Alice"}
	c := New(inner)
	for i := 0; i < 3; i++ {
		pp, err := c.Profile(i%2, "a")
		if err != nil || pp.Name != "Alice" {
			t.Fatalf("fetch %d: %v, %v", i, pp, err)
		}
	}
	if n := inner.calls("a"); n != 1 {
		t.Fatalf("inner client saw %d profile fetches, want 1", n)
	}
	st := c.Stats()
	if st.Misses.ProfileRequests != 1 || st.Hits.ProfileRequests != 2 {
		t.Fatalf("stats %+v, want 1 miss / 2 hits", st)
	}
	if st.SavedBytes == 0 {
		t.Fatal("saved-bytes estimate stayed zero across hits")
	}
}

func TestProfileErrorsNotCached(t *testing.T) {
	inner := newScript()
	inner.profiles["a"] = &osn.PublicProfile{ID: "a"}
	inner.failures["profile/a"] = 2
	c := New(inner)
	for i := 0; i < 2; i++ {
		if _, err := c.Profile(0, "a"); !errors.Is(err, errFlaky) {
			t.Fatalf("attempt %d: %v, want injected failure", i, err)
		}
	}
	if pp, err := c.Profile(0, "a"); err != nil || pp.ID != "a" {
		t.Fatalf("after failures drained: %v, %v", pp, err)
	}
	if n := inner.calls("a"); n != 3 {
		t.Fatalf("inner saw %d calls, want 3 (errors must pass through uncached)", n)
	}
	// Terminal verdicts aren't cached either: a missing user is re-asked.
	if _, err := c.Profile(0, "ghost"); !errors.Is(err, osn.ErrNotFound) {
		t.Fatalf("ghost: %v", err)
	}
	if _, err := c.Profile(0, "ghost"); !errors.Is(err, osn.ErrNotFound) {
		t.Fatalf("ghost again: %v", err)
	}
	if n := inner.calls("ghost"); n != 2 {
		t.Fatalf("ghost asked %d times, want 2", n)
	}
}

// TestFriendPagesReplayExactly: a second full walk must see the same page
// boundaries and has-more flags as the platform served, with zero inner
// calls — so a replayed crawl counts the same per-page requests.
func TestFriendPagesReplayExactly(t *testing.T) {
	inner := newScript()
	inner.friends["u"] = [][]osn.FriendRef{
		{{ID: "f1"}, {ID: "f2"}},
		{{ID: "f3"}},
		{},
	}
	c := New(inner)
	walk := func() ([][]osn.FriendRef, []bool) {
		var pages [][]osn.FriendRef
		var mores []bool
		for pg := 0; ; pg++ {
			batch, more, err := c.FriendPage(0, "u", pg)
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, batch)
			mores = append(mores, more)
			if !more {
				return pages, mores
			}
		}
	}
	p1, m1 := walk()
	p2, m2 := walk()
	if len(p1) != 3 || len(p2) != len(p1) {
		t.Fatalf("walks saw %d and %d pages, want 3", len(p1), len(p2))
	}
	for i := range p1 {
		if len(p1[i]) != len(p2[i]) || m1[i] != m2[i] {
			t.Fatalf("page %d replayed differently: %d/%v vs %d/%v", i, len(p1[i]), m1[i], len(p2[i]), m2[i])
		}
	}
	for pg := 0; pg < 3; pg++ {
		if n := inner.pages("u", pg); n != 1 {
			t.Fatalf("page %d reached the platform %d times, want 1", pg, n)
		}
	}
}

// TestFriendPagesPartialResume: a walk interrupted mid-list leaves its
// prefix cached; the next walk serves the prefix from memory and passes
// through from the first missing page.
func TestFriendPagesPartialResume(t *testing.T) {
	inner := newScript()
	inner.friends["u"] = [][]osn.FriendRef{{{ID: "f1"}}, {{ID: "f2"}}, {{ID: "f3"}}}
	inner.failures["friends/u/1"] = 1
	c := New(inner)
	if _, more, err := c.FriendPage(0, "u", 0); err != nil || !more {
		t.Fatalf("page 0: more=%v err=%v", more, err)
	}
	if _, _, err := c.FriendPage(0, "u", 1); !errors.Is(err, errFlaky) {
		t.Fatalf("page 1 should have failed, got %v", err)
	}
	// Resume: page 0 from cache, pages 1-2 from the platform.
	for pg, wantMore := range []bool{true, true, false} {
		batch, more, err := c.FriendPage(0, "u", pg)
		if err != nil || more != wantMore || len(batch) != 1 {
			t.Fatalf("resume page %d: batch=%d more=%v err=%v", pg, len(batch), more, err)
		}
	}
	if n := inner.pages("u", 0); n != 1 {
		t.Fatalf("page 0 re-fetched (%d inner calls)", n)
	}
	if n := inner.pages("u", 1); n != 2 {
		t.Fatalf("page 1 inner calls %d, want 2 (failure + retry)", n)
	}
}

func TestHiddenVerdictCached(t *testing.T) {
	inner := newScript()
	inner.hidden["u"] = true
	c := New(inner)
	for i := 0; i < 2; i++ {
		if _, _, err := c.FriendPage(0, "u", 0); !errors.Is(err, osn.ErrHidden) {
			t.Fatalf("walk %d: %v", i, err)
		}
	}
	if n := inner.pages("u", 0); n != 1 {
		t.Fatalf("hidden verdict asked %d times, want 1", n)
	}
	if st := c.Stats(); st.Hits.FriendListRequests != 1 {
		t.Fatalf("stats %+v, want the second hidden verdict served as a hit", st)
	}
}

// TestSingleFlight: concurrent fetches of one profile reach the platform
// once; everyone gets the same result. Run with -race in CI.
func TestSingleFlight(t *testing.T) {
	inner := newScript()
	inner.profiles["a"] = &osn.PublicProfile{ID: "a", Name: "Alice"}
	inner.friends["a"] = [][]osn.FriendRef{{{ID: "f1"}}}
	reg := obs.NewRegistry()
	c := New(inner).Instrument(reg)
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pp, err := c.Profile(i%2, "a")
			if err == nil && pp.Name != "Alice" {
				err = fmt.Errorf("wrong profile %+v", pp)
			}
			if err == nil {
				_, _, err = c.FriendPage(i%2, "a", 0)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if n := inner.calls("a"); n != 1 {
		t.Fatalf("single-flight leaked: %d inner profile calls", n)
	}
	if n := inner.pages("a", 0); n != 1 {
		t.Fatalf("single-flight leaked: %d inner page calls", n)
	}
	counters := reg.Counters()
	hits := counters[`crawl_cache_hits_total{kind="profile"}`]
	misses := counters[`crawl_cache_misses_total{kind="profile"}`]
	if misses != 1 || hits != 31 {
		t.Fatalf("profile counters hits=%v misses=%v, want 31/1", hits, misses)
	}
}

// TestEventLogEmission: with an event logger armed, hits and misses emit
// "cache" debug events and (regression) don't panic on the logger's
// span-from-context lookup — the cache has no request context to offer.
func TestEventLogEmission(t *testing.T) {
	inner := newScript()
	inner.profiles["a"] = &osn.PublicProfile{ID: "a", Name: "Alice"}
	var buf bytes.Buffer
	lg := evlog.New(evlog.Options{Sink: &buf, MinLevel: evlog.Debug})
	c := New(inner).WithLog(lg)
	for i := 0; i < 2; i++ {
		if _, err := c.Profile(0, "a"); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, `"msg":"miss"`) || !strings.Contains(out, `"msg":"hit"`) {
		t.Fatalf("cache events missing from log:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("non-JSON event line %q: %v", line, err)
		}
	}
}

// TestLeaderFailureHandsOver: if the in-flight leader's fetch fails, a
// waiter takes over instead of inheriting the error or a poisoned cache.
func TestLeaderFailureHandsOver(t *testing.T) {
	inner := newScript()
	inner.profiles["a"] = &osn.PublicProfile{ID: "a"}
	inner.failures["profile/a"] = 1
	c := New(inner)
	var wg sync.WaitGroup
	ok := make([]bool, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pp, err := c.Profile(0, "a")
			ok[i] = err == nil && pp != nil
		}(i)
	}
	wg.Wait()
	succeeded := 0
	for _, b := range ok {
		if b {
			succeeded++
		}
	}
	// Exactly one goroutine absorbs the injected failure; everyone who
	// arrived after the handover succeeds. At minimum, not all fail.
	if succeeded < 7 {
		t.Fatalf("%d/8 goroutines succeeded; leader failure should not poison waiters", succeeded)
	}
	if pp, err := c.Profile(0, "a"); err != nil || pp == nil {
		t.Fatalf("post-handover fetch: %v, %v", pp, err)
	}
}
