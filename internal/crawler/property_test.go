package crawler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// scriptClient is a scripted Client for crawl-stack invariants: it decides
// per-id transient-failure schedules and per-account suspension points, and
// records every call it serves so tests can compare the session's
// accounting against ground truth.
type scriptClient struct {
	accounts        int
	transientBefore map[osn.PublicID]int // id → failures before first success
	permanent       map[osn.PublicID]error
	suspendAfter    map[int]int // acct → calls served before suspension
	friends         map[osn.PublicID][][]osn.FriendRef
	block           map[osn.PublicID]chan struct{} // first call blocks until closed

	mu              sync.Mutex
	calls           int
	attempts        map[osn.PublicID]int
	acctCalls       map[int]int
	suspended       map[int]bool
	suspendedServed map[int]int
	strict          bool
	violations      []string
}

func newScriptClient(accounts int) *scriptClient {
	return &scriptClient{
		accounts:        accounts,
		transientBefore: map[osn.PublicID]int{},
		permanent:       map[osn.PublicID]error{},
		suspendAfter:    map[int]int{},
		friends:         map[osn.PublicID][][]osn.FriendRef{},
		block:           map[osn.PublicID]chan struct{}{},
		attempts:        map[osn.PublicID]int{},
		acctCalls:       map[int]int{},
		suspended:       map[int]bool{},
		suspendedServed: map[int]int{},
	}
}

func (m *scriptClient) Accounts() int { return m.accounts }

func (m *scriptClient) LookupSchool(string) (osn.SchoolRef, error) {
	return osn.SchoolRef{}, osn.ErrNoSchool
}

func (m *scriptClient) Search(int, int, int) ([]osn.SearchResult, bool, error) {
	return nil, false, nil
}

// serve runs the bookkeeping shared by Profile and FriendPage and reports
// the scripted error for this call, or nil when the call should succeed.
func (m *scriptClient) serve(acct int, id osn.PublicID) error {
	if ch, ok := func() (chan struct{}, bool) {
		m.mu.Lock()
		defer m.mu.Unlock()
		ch, ok := m.block[id]
		if ok {
			delete(m.block, id)
		}
		return ch, ok
	}(); ok {
		<-ch
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	m.acctCalls[acct]++
	if m.suspended[acct] {
		m.suspendedServed[acct]++
		if m.strict {
			m.violations = append(m.violations,
				fmt.Sprintf("request for %s on account %d after suspension", id, acct))
		}
		return osn.ErrSuspended
	}
	if after, ok := m.suspendAfter[acct]; ok && m.acctCalls[acct] > after {
		m.suspended[acct] = true
		m.suspendedServed[acct]++
		return osn.ErrSuspended
	}
	if err, ok := m.permanent[id]; ok {
		return err
	}
	m.attempts[id]++
	if m.attempts[id] <= m.transientBefore[id] {
		if m.attempts[id]%2 == 0 {
			return osn.ErrThrottled
		}
		return errors.New("scripted transient failure")
	}
	return nil
}

func (m *scriptClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	if err := m.serve(acct, id); err != nil {
		return nil, err
	}
	return &osn.PublicProfile{ID: id, Name: "p-" + string(id)}, nil
}

func (m *scriptClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	if err := m.serve(acct, id); err != nil {
		return nil, false, err
	}
	pages, ok := m.friends[id]
	if !ok {
		return nil, false, osn.ErrHidden
	}
	if page >= len(pages) {
		return nil, false, nil
	}
	return pages[page], page < len(pages)-1, nil
}

func (m *scriptClient) totalCalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// instantSession is a session over c whose backoff never sleeps.
func instantSession(c Client) *Session {
	s := NewSession(c)
	s.Sleep = func(time.Duration) {}
	return s
}

// TestFetcherPropertyAlignmentAndEffort drives randomized trials of the
// central invariants: results stay index-aligned with the input ids under
// concurrency and scripted transient failures, every id counts exactly one
// logical request, and logical requests plus retries equal the calls the
// client actually served.
func TestFetcherPropertyAlignmentAndEffort(t *testing.T) {
	rng := sim.New(42).Stream("fetcher-props")
	for trial := 0; trial < 30; trial++ {
		workers := 1 + rng.Intn(8)
		n := 1 + rng.Intn(60)
		m := newScriptClient(1 + rng.Intn(4))
		ids := make([]osn.PublicID, n)
		wantExtra := 0
		for i := range ids {
			ids[i] = osn.PublicID(fmt.Sprintf("u%d", i))
			if rng.Bool(0.4) {
				k := 1 + rng.Intn(3)
				m.transientBefore[ids[i]] = k
				wantExtra += k
			}
		}
		s := instantSession(m)
		profiles, err := fetchProfiles(context.Background(), s, workers, ids)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, pp := range profiles {
			if pp == nil || pp.ID != ids[i] {
				t.Fatalf("trial %d: slot %d misaligned: %v", trial, i, pp)
			}
		}
		if got := s.Effort().ProfileRequests; got != n {
			t.Fatalf("trial %d: effort %d, want one logical request per id (%d)", trial, got, n)
		}
		if got := s.Retries().ProfileRequests; got != wantExtra {
			t.Fatalf("trial %d: retries %d, want %d", trial, got, wantExtra)
		}
		if got, want := s.Effort().ProfileRequests+s.Retries().ProfileRequests, m.totalCalls(); got != want {
			t.Fatalf("trial %d: effort+retries %d, client served %d", trial, got, want)
		}
	}
}

// TestFetcherPropertyFriendListsAligned checks index alignment and page
// reassembly for concurrent friend-list fetches with scripted flakiness.
func TestFetcherPropertyFriendListsAligned(t *testing.T) {
	rng := sim.New(7).Stream("friendlist-props")
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		m := newScriptClient(1 + rng.Intn(3))
		ids := make([]osn.PublicID, n)
		want := make(map[osn.PublicID]int)
		for i := range ids {
			ids[i] = osn.PublicID(fmt.Sprintf("u%d", i))
			if rng.Bool(0.25) {
				continue // hidden list
			}
			pages := make([][]osn.FriendRef, 1+rng.Intn(4))
			total := 0
			for p := range pages {
				row := make([]osn.FriendRef, rng.Intn(5))
				for j := range row {
					row[j] = osn.FriendRef{ID: osn.PublicID(fmt.Sprintf("f%d-%d", total, i))}
					total++
				}
				pages[p] = row
			}
			m.friends[ids[i]] = pages
			want[ids[i]] = total
			if rng.Bool(0.3) {
				m.transientBefore[ids[i]] = 1 + rng.Intn(2)
			}
		}
		s := instantSession(m)
		lists, err := fetchFriendLists(context.Background(), s, 1+rng.Intn(6), ids)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range ids {
			total, visible := want[ids[i]]
			if !visible {
				if lists[i] != nil {
					t.Fatalf("trial %d: hidden list %s not nil", trial, ids[i])
				}
				continue
			}
			if lists[i] == nil || len(lists[i]) != total {
				t.Fatalf("trial %d: list %s has %d entries, want %d", trial, ids[i], len(lists[i]), total)
			}
		}
		if got, want := s.Effort().FriendListRequests+s.Retries().FriendListRequests, m.totalCalls(); got != want {
			t.Fatalf("trial %d: effort+retries %d, client served %d", trial, got, want)
		}
	}
}

// TestFetcherNeverUsesSuspendedAccountSequential is the strict form of the
// suspension invariant: with one worker there is no discovery race, so
// after an account's first ErrSuspended response the session must never
// touch it again.
func TestFetcherNeverUsesSuspendedAccountSequential(t *testing.T) {
	m := newScriptClient(4)
	m.strict = true
	m.suspendAfter[0] = 3
	m.suspendAfter[2] = 5
	var ids []osn.PublicID
	for i := 0; i < 50; i++ {
		ids = append(ids, osn.PublicID(fmt.Sprintf("u%d", i)))
	}
	s := instantSession(m)
	if _, err := fetchProfiles(context.Background(), s, 1, ids); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.violations {
		t.Error(v)
	}
	for acct, served := range m.suspendedServed {
		if served > 1 {
			t.Errorf("account %d served %d suspended responses sequentially", acct, served)
		}
	}
	// Each suspension repeats its request on the next account: one more
	// logical request per suspended account.
	if got, want := s.Effort().ProfileRequests, len(ids)+2; got != want {
		t.Errorf("effort %d, want %d (one per id plus one per rotation)", got, want)
	}
}

// TestFetcherSuspendedAccountBoundConcurrent bounds the same invariant
// under concurrency: an account's suspension can be discovered by at most
// `workers` in-flight requests before the shared mark stops further use.
func TestFetcherSuspendedAccountBoundConcurrent(t *testing.T) {
	const workers = 6
	m := newScriptClient(3)
	m.suspendAfter[1] = 2
	var ids []osn.PublicID
	for i := 0; i < 120; i++ {
		ids = append(ids, osn.PublicID(fmt.Sprintf("u%d", i)))
	}
	if _, err := fetchProfiles(context.Background(), instantSession(m), workers, ids); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if served := m.suspendedServed[1]; served > workers {
		t.Fatalf("suspended account served %d requests, in-flight bound is %d", served, workers)
	}
}

// barrierClient holds every profile call until all the calls the barrier
// expects are in flight, so concurrent failures happen together.
type barrierClient struct {
	*scriptClient
	wg *sync.WaitGroup
}

func (b barrierClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	b.wg.Done()
	b.wg.Wait()
	return b.scriptClient.Profile(acct, id)
}

// TestFetcherJoinsAllWorkerErrors: when several items fail at once, the
// pool stops and every item error appears in the joined result instead of
// only the first one.
func TestFetcherJoinsAllWorkerErrors(t *testing.T) {
	const workers = 4
	m := newScriptClient(2)
	var ids []osn.PublicID
	for i := 0; i < 6; i++ {
		id := osn.PublicID(fmt.Sprintf("bad%d", i))
		m.permanent[id] = osn.ErrNotFound
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	wg.Add(workers) // the first `workers` items fail together; the rest never start
	s := instantSession(barrierClient{scriptClient: m, wg: &wg})
	_, err := fetchProfiles(context.Background(), s, workers, ids)
	if err == nil {
		t.Fatal("expected joined failure")
	}
	if got := strings.Count(err.Error(), "crawler: profile bad"); got != workers {
		t.Fatalf("joined error carries %d item errors, want %d:\n%v", got, workers, err)
	}
	if got := s.Failures().ProfileRequests; got != workers {
		t.Fatalf("%d profile failures tallied, want %d", got, workers)
	}
}

// TestFetcherTimeoutRetries: a call that hangs past the per-request timeout
// is abandoned and retried; the retry succeeds.
func TestFetcherTimeoutRetries(t *testing.T) {
	m := newScriptClient(2)
	release := make(chan struct{})
	defer close(release)
	m.block["slow"] = release
	s := instantSession(m)
	s.Timeout = 20 * time.Millisecond
	profiles, err := fetchProfiles(context.Background(), s, 2, []osn.PublicID{"slow", "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if profiles[0] == nil || profiles[0].ID != "slow" {
		t.Fatalf("slow slot: %v", profiles[0])
	}
	if s.Retries().ProfileRequests == 0 {
		t.Fatal("timeout retry not tallied")
	}
}

// TestSessionTimeoutRetries: a session call that hangs past the per-request
// timeout is abandoned and retried; the abandoned call's late completion
// must not race the retry's result (each attempt's value travels over its
// own channel, so run this under -race).
func TestSessionTimeoutRetries(t *testing.T) {
	m := newScriptClient(2)
	release := make(chan struct{})
	m.block["slow"] = release
	s := instantSession(m)
	s.Timeout = 20 * time.Millisecond
	pp, err := s.FetchProfile(context.Background(), "slow")
	// Release the abandoned first attempt while the result is still live,
	// so a shared-variable write would be caught by the race detector.
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if pp == nil || pp.ID != "slow" {
		t.Fatalf("profile = %v, want slow", pp)
	}
	if s.Retries().ProfileRequests == 0 {
		t.Fatal("timeout retry not tallied")
	}
	if s.Effort().ProfileRequests != 1 {
		t.Fatalf("effort counts %d profile requests, want 1 logical request", s.Effort().ProfileRequests)
	}
}

// TestFetcherContextCancellation: cancelling the context stops the crawl
// and surfaces the cancellation, at one worker and several.
func TestFetcherContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		m := newScriptClient(2)
		ctx, cancel := context.WithCancel(context.Background())
		release := make(chan struct{})
		m.block["gate"] = release
		var ids []osn.PublicID
		ids = append(ids, "gate")
		for i := 0; i < 200; i++ {
			ids = append(ids, osn.PublicID(fmt.Sprintf("u%d", i)))
		}
		done := make(chan error, 1)
		go func() {
			_, err := fetchProfiles(ctx, instantSession(m), workers, ids)
			done <- err
		}()
		cancel()
		close(release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

// TestFetcherCancelWaitsForInFlight: a cancelled crawl returns only once
// the calls already in flight have finished, at any width.
func TestFetcherCancelWaitsForInFlight(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := newScriptClient(2)
		release := make(chan struct{})
		m.block["slow"] = release
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := fetchProfiles(ctx, instantSession(m), workers, []osn.PublicID{"slow", "a", "b"})
			done <- err
		}()
		for {
			m.mu.Lock()
			_, waiting := m.block["slow"]
			m.mu.Unlock()
			if !waiting {
				break // the slow call is in flight
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-done:
			t.Fatalf("workers=%d: returned %v while a call was still in flight", workers, err)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

// TestBackoffJitterDeterministic: the backoff schedule is a pure function
// of the request and the attempt — two sessions sleep identically, another
// request gets another jitter — and it doubles within [base/2, maxDelay].
func TestBackoffJitterDeterministic(t *testing.T) {
	schedule := func(id osn.PublicID) []time.Duration {
		m := newScriptClient(1)
		m.transientBefore[id] = maxRetries
		var delays []time.Duration
		s := NewSession(m)
		s.Sleep = func(d time.Duration) { delays = append(delays, d) }
		if _, err := s.FetchProfile(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		return delays
	}
	a, b, c := schedule("u1"), schedule("u1"), schedule("u2")
	if len(a) != maxRetries {
		t.Fatalf("%d backoffs for %d retries", len(a), maxRetries)
	}
	var diverged bool
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("attempt %d: same request diverged: %v vs %v", k, a[k], b[k])
		}
		if a[k] != c[k] {
			diverged = true
		}
		ceil := min(baseDelay<<k, maxDelay)
		if a[k] < ceil/2 || a[k] > ceil {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", k, a[k], ceil/2, ceil)
		}
	}
	if !diverged {
		t.Fatal("different requests never diverged")
	}
}
