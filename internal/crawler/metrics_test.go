package crawler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn"
)

// requireCounter asserts one series in a registry snapshot.
func requireCounter(t *testing.T, snap map[string]float64, key string, want int) {
	t.Helper()
	if got := snap[key]; got != float64(want) {
		t.Errorf("%s = %v, want %d", key, got, want)
	}
}

// TestSessionMetricsMatchEffort drives every request category through an
// instrumented session and checks the exported counters agree exactly with
// the Effort tallies — the Table 3 accounting invariant.
func TestSessionMetricsMatchEffort(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{SearchPerAccount: 20})
	d, err := NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewSession(d).Instrument(reg)
	ctx := context.Background()
	seeds, err := s.CollectSeeds(ctx, 1, 0, s.AllAccounts())
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		if i >= 8 {
			break
		}
		if _, err := s.FetchProfile(ctx, seed.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := s.FetchFriends(ctx, seed.ID); err != nil && !errors.Is(err, osn.ErrHidden) {
			t.Fatal(err)
		}
	}
	snap := reg.Counters()
	requireCounter(t, snap, `crawl_requests_total{category="seed"}`, s.Effort().SeedRequests)
	requireCounter(t, snap, `crawl_requests_total{category="profile"}`, s.Effort().ProfileRequests)
	requireCounter(t, snap, `crawl_requests_total{category="friendlist"}`, s.Effort().FriendListRequests)
	requireCounter(t, snap, `crawl_failures_total{category="seed"}`, 0)
}

// TestSessionMetricsRetries forces throttling and checks that retries land
// in crawl_retries_total under the throttle class, matching the Retries
// struct, and that backoff time is accounted.
func TestSessionMetricsRetries(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{
		SearchPerAccount: 30,
		SearchPageSize:   2, // many pages, so the throttle must trip
		ThrottleLimit:    5,
		ThrottleWindow:   time.Minute,
	})
	clock := &fakeClock{t: time.Unix(1000, 0)}
	p.SetClock(clock.now)
	d, err := NewDirect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := NewSession(d).Instrument(reg)
	s.Sleep = advanceBackoff(clock, 20*time.Second)
	if _, err := s.CollectSeeds(context.Background(), 1, 0, s.AllAccounts()); err != nil {
		t.Fatal(err)
	}
	if s.Retries().SeedRequests == 0 {
		t.Fatal("throttle config produced no retries")
	}
	snap := reg.Counters()
	requireCounter(t, snap, `crawl_retries_total{category="seed",class="throttle"}`, s.Retries().SeedRequests)
	requireCounter(t, snap, `crawl_requests_total{category="seed"}`, s.Effort().SeedRequests)
}

// TestFetcherMetricsMatchEffort checks the counters of a six-worker pool
// against the session's Effort view, and that the queue-depth gauge settles
// back to zero once the batches drain.
func TestFetcherMetricsMatchEffort(t *testing.T) {
	p, s := poolRig(t, osn.Config{})
	reg := obs.NewRegistry()
	s.Instrument(reg)
	ids := accountIDs(t, p, 40)
	if _, err := fetchProfiles(context.Background(), s, 6, ids); err != nil {
		t.Fatal(err)
	}
	if _, err := fetchFriendLists(context.Background(), s, 6, ids[:10]); err != nil {
		t.Fatal(err)
	}
	snap := reg.Counters()
	requireCounter(t, snap, `crawl_requests_total{category="profile"}`, s.Effort().ProfileRequests)
	requireCounter(t, snap, `crawl_requests_total{category="friendlist"}`, s.Effort().FriendListRequests)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ncrawl_queue_depth 0\n") {
		t.Errorf("queue gauge did not settle to zero:\n%s", b.String())
	}
}

// TestFetcherBatchSpans checks that a traced batch opens one span per
// request under the caller's span, whatever the width.
func TestFetcherBatchSpans(t *testing.T) {
	p, s := poolRig(t, osn.Config{})
	ids := accountIDs(t, p, 12)
	tr := obs.NewTrace("crawl")
	ctx, span := obs.StartSpan(tr.Context(context.Background()), "profiles-batch")
	if _, err := fetchProfiles(ctx, s, 4, ids); err != nil {
		t.Fatal(err)
	}
	span.End()
	tr.Finish()
	var batch *obs.Span
	for _, s := range tr.Root().Children() {
		if s.Name() == "profiles-batch" {
			batch = s
		}
	}
	if batch == nil {
		t.Fatal("no profiles-batch span recorded")
	}
	if got := len(batch.Children()); got != len(ids) {
		t.Fatalf("batch has %d request spans, want %d", got, len(ids))
	}
}

func TestErrorClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "none"},
		{osn.ErrThrottled, "throttle"},
		{fmt.Errorf("wrap: %w", osn.ErrThrottled), "throttle"},
		{ErrTimeout, "timeout"},
		{context.DeadlineExceeded, "timeout"},
		{fmt.Errorf("page: %w", osn.ErrMalformed), "malformed"},
		{osn.ErrSuspended, "permanent"},
		{osn.ErrHidden, "permanent"},
		{errors.New("connection reset"), "transport"},
	}
	for _, c := range cases {
		if got := ErrorClass(c.err); got != c.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// benchProfileLoop fetches one profile repeatedly through a session.
func benchProfileLoop(b *testing.B, s *Session, id osn.PublicID) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FetchProfile(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionFetchProfile measures the crawl hot path in its three
// instrumentation states. The acceptance bar is that the disabled state
// (Instrument(nil), i.e. a nil registry) stays within 2% of the baseline.
func BenchmarkSessionFetchProfile(b *testing.B) {
	p := testWorldPlatform(b, osn.Config{})
	d, err := NewDirect(p, 3)
	if err != nil {
		b.Fatal(err)
	}
	var id osn.PublicID
	for _, person := range p.World().People {
		if person.HasAccount {
			id, _ = p.PublicIDOf(person.ID)
			break
		}
	}
	b.Run("baseline", func(b *testing.B) {
		benchProfileLoop(b, NewSession(d), id)
	})
	b.Run("disabled", func(b *testing.B) {
		benchProfileLoop(b, NewSession(d).Instrument(nil), id)
	})
	b.Run("enabled", func(b *testing.B) {
		benchProfileLoop(b, NewSession(d).Instrument(obs.NewRegistry()), id)
	})
}
