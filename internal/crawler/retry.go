package crawler

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// ErrTimeout is returned (wrapped) when one client call exceeds the
// session's per-request Timeout. It is transient: the session retries it
// like any other flaky-transport failure.
var ErrTimeout = errors.New("crawler: request timed out")

// maxRetries bounds the transient retries of one logical request. The
// faults injector's MaxConsecutive (default 4) stays below it, so every
// injected fault is survivable.
const maxRetries = 12

// Backoff between transient retries doubles from baseDelay up to maxDelay,
// scaled by a jitter in [0.5, 1) drawn from a fixed seed and the request
// key: two runs back off identically while concurrent workers stay
// decorrelated.
const (
	baseDelay  = 2 * time.Millisecond
	maxDelay   = 250 * time.Millisecond
	jitterSeed = 0
)

// request names one logical request: its Table 3 category and what it
// asks for. Its key — the span name, the event key and the jitter stream —
// is only built when one of those needs it.
type request struct {
	cat category
	// acct pins the request to one account (a seed-search walk); -1
	// rotates through the pool.
	acct   int
	id     osn.PublicID
	school int
	page   int
	// lookup is the school name of a lookup, which uses no account and
	// counts no logical request.
	lookup string
}

func (r request) key() string {
	switch {
	case r.lookup != "":
		return "school/" + r.lookup
	case r.cat == catSeed:
		return fmt.Sprintf("search/%d/%d/%d", r.acct, r.school, r.page)
	case r.cat == catProfile:
		return "profile/" + string(r.id)
	default:
		return fmt.Sprintf("friends/%s/%d", r.id, r.page)
	}
}

// page carries one paginated client response through the retry loop,
// keeping the results and the has-more flag attempt-local as a unit.
type page[T any] struct {
	items []T
	more  bool
}

// call makes one logical request and returns the value of the attempt
// that concluded it. It is the crawler's only retry loop:
//
//   - The context is checked before every attempt, so a cancelled crawl
//     stops between requests; a call already in flight is only abandoned
//     by the session's Timeout.
//   - A rotating request takes the next non-suspended account and counts
//     one logical request. A suspension marks the account, then the same
//     request moves to the next account and counts again. A pinned request
//     returns the suspension instead.
//   - Transient failures are retried on the same account after a backoff,
//     up to maxRetries times, and tallied in Retries. They never count a
//     logical request.
//   - Exhausted retries and unexpected permanent errors are tallied in
//     Failures. Hidden lists, suspensions and cancellation are outcomes,
//     not failures.
//
// When ctx carries a trace each logical request gets its own span.
// Terminal platform verdicts (ErrHidden, ErrNotFound, ...) are returned
// unwrapped for callers to branch on.
func call[T any](ctx context.Context, s *Session, r request, fn func(acct int) (T, error)) (T, error) {
	if obs.SpanFromContext(ctx) != nil {
		var span *obs.Span
		ctx, span = obs.StartSpan(ctx, r.key())
		defer span.End()
	}
	// The completion event carries wall time; only read the clock when a
	// logger will consume it.
	logOn := s.lg.On(evlog.Info)
	var start time.Time
	if logOn {
		start = time.Now()
	}
	var zero T
	acct := r.acct
	due := r.lookup == "" // a new logical request is due
	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if due {
			if r.acct < 0 {
				var err error
				if acct, err = s.account(); err != nil {
					return zero, err
				}
			}
			// The single increment point of both the Table 3 tally and
			// crawl_requests_total.
			s.tally(&s.effort, r.cat)
			s.m.request(r.cat)
			due = false
		}
		v, err := timedCall(s, acct, fn)
		if err == nil {
			if logOn {
				s.lg.Info(ctx, "crawl", "fetched",
					evlog.Str("key", r.key()), evlog.Str("category", r.cat.String()),
					evlog.Int("attempts", attempt+1), evlog.Dur("ms", time.Since(start)))
			}
			return v, nil
		}
		if errors.Is(err, osn.ErrSuspended) && r.lookup == "" {
			// Account rotation, not a retry: the request itself is fine,
			// the credential is burned.
			s.suspend(acct)
			s.lg.Warn(ctx, "crawl", "account suspended, rotating",
				evlog.Int("account", acct), evlog.Str("key", r.key()))
			if r.acct >= 0 {
				return zero, err
			}
			due, attempt = true, 0
			continue
		}
		if !IsTransient(err) {
			if !errors.Is(err, osn.ErrHidden) && !errors.Is(err, osn.ErrSuspended) &&
				!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				s.tally(&s.failures, r.cat)
				s.m.failure(r.cat)
				s.lg.Error(ctx, "crawl", "permanent failure",
					evlog.Str("key", r.key()), evlog.Str("category", r.cat.String()),
					evlog.Err("err", err))
			}
			return zero, err
		}
		if attempt >= maxRetries {
			s.tally(&s.failures, r.cat)
			s.m.failure(r.cat)
			s.lg.Error(ctx, "crawl", "retries exhausted",
				evlog.Str("key", r.key()), evlog.Str("category", r.cat.String()),
				evlog.Int("attempts", attempt+1), evlog.Str("class", ErrorClass(err)),
				evlog.Err("err", err))
			return zero, err
		}
		s.tally(&s.retries, r.cat)
		s.m.retry(r.cat, err)
		s.lg.Warn(ctx, "crawl", "retry",
			evlog.Str("key", r.key()), evlog.Str("category", r.cat.String()),
			evlog.Str("class", ErrorClass(err)), evlog.Int("attempt", attempt+1),
			evlog.Err("err", err))
		s.backoff(r, attempt)
		attempt++
	}
}

// timedCall runs one client call under the latency histogram and the
// session's Timeout. An overrunning call is abandoned: it finishes on its
// own goroutine with its result delivered into an orphaned attempt-local
// buffer, so a late completion can never race the retry attempt. Without
// a Timeout the call runs on the caller's goroutine.
func timedCall[T any](s *Session, acct int, fn func(acct int) (T, error)) (T, error) {
	var v T
	err := s.m.timed(func() error {
		if s.Timeout <= 0 {
			var err error
			v, err = fn(acct)
			return err
		}
		type outcome struct {
			v   T
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			v, err := fn(acct)
			done <- outcome{v: v, err: err}
		}()
		timer := time.NewTimer(s.Timeout)
		defer timer.Stop()
		select {
		case o := <-done:
			v = o.v
			return o.err
		case <-timer.C:
			return fmt.Errorf("%w after %v", ErrTimeout, s.Timeout)
		}
	})
	return v, err
}

// backoff sleeps before retry attempt+1 of r.
func (s *Session) backoff(r request, attempt int) {
	d := min(baseDelay<<attempt, maxDelay)
	jitter := sim.New(jitterSeed).Stream(r.key() + "#" + strconv.Itoa(attempt)).Float64()
	d = time.Duration(float64(d) * (0.5 + jitter/2))
	sleep := s.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	s.m.timedSleep(func() { sleep(d) })
}
