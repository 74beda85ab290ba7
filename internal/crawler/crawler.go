// Package crawler provides the third party's data-collection machinery:
// a platform-access interface implemented both in-process and over HTTP,
// fake-account rotation, suspension handling, a bounded worker pool, and
// the request-effort accounting behind the paper's Table 3.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
)

// IsTransient reports whether an error is worth retrying. Platform-semantic
// verdicts (suspension, hidden lists, missing users, bad credentials) and
// context cancellation are final; everything else — throttling, injected
// 5xx, connection resets, malformed pages, timeouts — is assumed to be a
// property of the attempt rather than the request, which is how a
// production crawler must treat an adversarial platform.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	for _, permanent := range []error{
		osn.ErrSuspended, osn.ErrHidden, osn.ErrNotFound, osn.ErrNoSchool,
		osn.ErrUnauthorized, osn.ErrUnderage,
		context.Canceled, context.DeadlineExceeded,
	} {
		if errors.Is(err, permanent) {
			return false
		}
	}
	return true
}

// Request categories live in metrics.go: the category type selects both
// the Effort field and the obs counter label, keeping the struct tallies
// and the exported metrics in lockstep.

// Client is the stranger-visible platform surface available to a third
// party: school lookup, Find-Friends search, public profile pages, and
// paginated friend lists — nothing else. osnhttp.Client implements it over
// HTTP; Direct implements it in-process.
type Client interface {
	// Accounts reports the number of fake accounts available.
	Accounts() int
	// LookupSchool resolves a school by its public name.
	LookupSchool(name string) (osn.SchoolRef, error)
	// Search returns one page of school-search results as seen by account
	// acct.
	Search(acct, schoolID, page int) ([]osn.SearchResult, bool, error)
	// Profile fetches a public profile.
	Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error)
	// FriendPage fetches one page of a friend list (osn.ErrHidden if the
	// list is not stranger-visible).
	FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error)
}

// Effort tallies requests by category, mirroring the three components of
// the paper's measurement-effort model A·R + |S| + |C|·f/p.
type Effort struct {
	// SeedRequests counts search-page fetches (the A·R term).
	SeedRequests int
	// ProfileRequests counts profile-page fetches (the |S| term, plus the
	// extra (1+ε)t pages of the enhanced methodology).
	ProfileRequests int
	// FriendListRequests counts friend-list page fetches (the |C|·f/p term).
	FriendListRequests int
}

// Total is the total number of requests issued.
func (e Effort) Total() int {
	return e.SeedRequests + e.ProfileRequests + e.FriendListRequests
}

// Add accumulates another tally.
func (e Effort) Add(o Effort) Effort {
	return Effort{
		SeedRequests:       e.SeedRequests + o.SeedRequests,
		ProfileRequests:    e.ProfileRequests + o.ProfileRequests,
		FriendListRequests: e.FriendListRequests + o.FriendListRequests,
	}
}

// Sub returns the tally minus o — the effort spent between two snapshots
// of a monotone tally.
func (e Effort) Sub(o Effort) Effort {
	return Effort{
		SeedRequests:       e.SeedRequests - o.SeedRequests,
		ProfileRequests:    e.ProfileRequests - o.ProfileRequests,
		FriendListRequests: e.FriendListRequests - o.FriendListRequests,
	}
}

// Session is the attack's one crawl stack: it layers account rotation,
// suspension handling, retries, per-request timeouts and the Table 3
// effort accounting over a Client, and runs batches over a worker pool
// (ForEach). A one-worker pool is the sequential crawl; wider pools make
// the same logical requests, so every tally is width-invariant. Safe for
// concurrent use; set Timeout and Sleep before the first request.
type Session struct {
	// Timeout bounds each client call (0 = unbounded). A call that
	// overruns is abandoned on its goroutine and retried like any other
	// transient failure; the abandoned call's result is discarded. It is
	// the only thing that abandons a call in flight: a cancelled context
	// stops the crawl before its next attempt.
	Timeout time.Duration
	// Sleep performs the backoff pause between retries; nil means
	// time.Sleep. Tests replace it to skip waits or advance a fake clock.
	Sleep func(time.Duration)

	client Client
	m      *crawlMetrics
	lg     *evlog.Logger

	mu        sync.Mutex
	next      int // account cursor
	suspended map[int]bool
	effort    Effort
	retries   Effort
	failures  Effort
}

// NewSession wraps a client.
func NewSession(c Client) *Session {
	return &Session{client: c, suspended: make(map[int]bool)}
}

// Instrument publishes the session's effort accounting to the registry:
// crawl_requests_total, crawl_retries_total, crawl_failures_total,
// crawl_request_seconds, crawl_backoff_seconds_total and
// crawl_queue_depth. crawl_requests_total is incremented at the same point
// as the Effort tally, so it matches the Table 3 accounting exactly. A nil
// registry leaves the session uninstrumented (no-op). Returns the session
// for chaining.
func (s *Session) Instrument(reg *obs.Registry) *Session {
	s.m = newCrawlMetrics(reg)
	return s
}

// WithLog attaches an event logger: each completed logical request emits a
// "crawl" info event carrying its key, attempt count and latency (the event
// stream runreport mines for the slowest requests), with warn/error events
// for retries, suspensions and failures. Events carry the per-request span
// when the context holds a trace. A nil logger keeps the session silent.
// Returns the session for chaining.
func (s *Session) WithLog(lg *evlog.Logger) *Session {
	s.lg = lg
	return s
}

// Log returns the session's event logger (nil if none) so higher layers
// driving the session — the extend builder, the run orchestration — can
// log into the same stream.
func (s *Session) Log() *evlog.Logger { return s.lg }

// Client returns the underlying client.
func (s *Session) Client() Client { return s.client }

// SwapClient replaces the session's client, returning the previous one, so
// callers can layer a decorator — a memoizing fetch cache, a latency model —
// for the duration of a run and restore the original afterwards. Effort
// accounting is unaffected: the session counts logical requests above the
// client. Not safe to call while a crawl is running.
func (s *Session) SwapClient(c Client) Client {
	old := s.client
	if c != nil {
		s.client = c
	}
	return old
}

// MetricsRegistry returns the registry the session was instrumented with
// (nil when uninstrumented), so components derived from the session —
// fetch caches — can publish to the same exposition.
func (s *Session) MetricsRegistry() *obs.Registry {
	if s.m == nil {
		return nil
	}
	return s.m.reg
}

// Effort returns the running request tally. It counts logical requests
// (the paper's Table 3 semantics): one per page or profile asked for, plus
// one per account rotation after a suspension. Extra attempts spent riding
// out throttles and transient failures are tallied in Retries instead.
func (s *Session) Effort() Effort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.effort
}

// Retries returns the per-category tally of extra attempts after throttled
// or transient failures.
func (s *Session) Retries() Effort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries
}

// Failures returns the per-category tally of requests that failed for
// good: transient errors that exhausted the retry budget, or unexpected
// permanent errors (suspensions and hidden lists are expected outcomes, not
// failures).
func (s *Session) Failures() Effort {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

// AllAccounts returns [0..n) for the client's account pool.
func (s *Session) AllAccounts() []int {
	n := s.client.Accounts()
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// account returns a non-suspended account index, rotating round-robin.
func (s *Session) account() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.client.Accounts()
	for i := 0; i < n; i++ {
		a := (s.next + i) % n
		if !s.suspended[a] {
			s.next = (a + 1) % n
			return a, nil
		}
	}
	return 0, fmt.Errorf("crawler: all %d accounts suspended", n)
}

func (s *Session) isSuspended(acct int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suspended[acct]
}

func (s *Session) suspend(acct int) {
	s.mu.Lock()
	s.suspended[acct] = true
	s.mu.Unlock()
}

// tally adds one to the category's field of a session tally.
func (s *Session) tally(t *Effort, c category) {
	s.mu.Lock()
	*c.bucket(t)++
	s.mu.Unlock()
}

// LookupSchool resolves the target school through the retry loop. It
// counts no logical request; its retries and failures land in the seed
// category.
func (s *Session) LookupSchool(ctx context.Context, name string) (osn.SchoolRef, error) {
	return call(ctx, s, request{cat: catSeed, acct: -1, lookup: name}, func(int) (osn.SchoolRef, error) {
		return s.client.LookupSchool(name)
	})
}

// CollectSeeds runs the school search on each of the given accounts over a
// pool of workers and returns the deduped union — the paper's seed set S.
// Each account scrolls its own results to exhaustion on that account (search
// views are per-account, so rotating mid-walk would splice two result
// sequences together); a suspension drops the account's remaining pages,
// and accounts already known suspended are skipped. The walks merge in
// account order with first-seen dedup, so the output does not depend on
// the width. Each page fetched counts one seed request.
func (s *Session) CollectSeeds(ctx context.Context, workers, schoolID int, accounts []int) ([]osn.SearchResult, error) {
	walks := make([][]osn.SearchResult, len(accounts))
	err := s.ForEach(ctx, workers, len(accounts), func(ctx context.Context, i int) error {
		acct := accounts[i]
		if s.isSuspended(acct) {
			return nil
		}
		for pg := 0; ; pg++ {
			res, err := call(ctx, s, request{cat: catSeed, acct: acct, school: schoolID, page: pg}, func(acct int) (page[osn.SearchResult], error) {
				results, more, err := s.client.Search(acct, schoolID, pg)
				return page[osn.SearchResult]{items: results, more: more}, err
			})
			if errors.Is(err, osn.ErrSuspended) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("crawler: seed search (account %d page %d): %w", acct, pg, err)
			}
			walks[i] = append(walks[i], res.items...)
			if !res.more {
				return nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[osn.PublicID]bool)
	var out []osn.SearchResult
	for _, walk := range walks {
		for _, r := range walk {
			if !seen[r.ID] {
				seen[r.ID] = true
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// FetchProfile downloads one public profile, rotating accounts on
// suspension. Terminal platform verdicts are returned unwrapped.
func (s *Session) FetchProfile(ctx context.Context, id osn.PublicID) (*osn.PublicProfile, error) {
	return call(ctx, s, request{cat: catProfile, acct: -1, id: id}, func(acct int) (*osn.PublicProfile, error) {
		return s.client.Profile(acct, id)
	})
}

// FetchFriends downloads a user's complete friend list across all pages,
// each page one logical request on the next account. It returns
// osn.ErrHidden unwrapped if the list is not stranger-visible so callers
// can branch on it; a visible but empty list yields a nil slice.
func (s *Session) FetchFriends(ctx context.Context, id osn.PublicID) ([]osn.FriendRef, error) {
	var out []osn.FriendRef
	for pg := 0; ; pg++ {
		res, err := call(ctx, s, request{cat: catFriend, acct: -1, id: id, page: pg}, func(acct int) (page[osn.FriendRef], error) {
			friends, more, err := s.client.FriendPage(acct, id, pg)
			return page[osn.FriendRef]{items: friends, more: more}, err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res.items...)
		if !res.more {
			return out, nil
		}
	}
}
