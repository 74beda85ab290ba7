package crawler

import (
	"context"
	"errors"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn"
)

// category attributes a request to one of the paper's Table 3 effort
// components. It doubles as the metric label and the Effort field
// selector, so the obs counters and the Effort struct can never disagree.
type category int

const (
	catSeed category = iota
	catProfile
	catFriend
	numCategories
)

// String is the metric label value.
func (c category) String() string {
	switch c {
	case catSeed:
		return "seed"
	case catProfile:
		return "profile"
	default:
		return "friendlist"
	}
}

// bucket selects the category's field in an Effort tally.
func (c category) bucket(e *Effort) *int {
	switch c {
	case catSeed:
		return &e.SeedRequests
	case catProfile:
		return &e.ProfileRequests
	default:
		return &e.FriendListRequests
	}
}

// ErrorClass buckets an error for the crawl_retries_total metric: which
// flavor of transient trouble the crawl is riding out. Unrecognized errors
// (injected 5xx, connection resets, transport failures) fall into
// "transport"; platform-semantic verdicts report "permanent".
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, osn.ErrThrottled):
		return "throttle"
	case errors.Is(err, ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, osn.ErrMalformed):
		return "malformed"
	case !IsTransient(err):
		return "permanent"
	default:
		return "transport"
	}
}

// crawlMetrics is the obs-backed view of a crawl's effort: the same
// quantities as the Effort tallies, plus latency, backoff time and queue
// depth, which the structs never captured. A nil *crawlMetrics (registry
// absent) makes every method a no-op.
type crawlMetrics struct {
	reg      *obs.Registry
	requests [numCategories]*obs.Counter
	failures [numCategories]*obs.Counter
	latency  *obs.Histogram
	backoff  *obs.Counter
	queue    *obs.Gauge
}

const (
	helpRequests = "Crawl requests issued, by Table 3 effort category."
	helpRetries  = "Extra attempts after transient failures, by category and error class."
	helpFailures = "Requests that failed for good after exhausting retries, by category."
	helpLatency  = "Latency of individual platform client calls."
	helpBackoff  = "Total time spent sleeping between transient retries."
	helpQueue    = "Batch items handed to the session's worker pool and not yet completed."
)

func newCrawlMetrics(reg *obs.Registry) *crawlMetrics {
	if reg == nil {
		return nil
	}
	m := &crawlMetrics{reg: reg}
	for c := catSeed; c < numCategories; c++ {
		lab := obs.L("category", c.String())
		m.requests[c] = reg.Counter("crawl_requests_total", helpRequests, lab)
		m.failures[c] = reg.Counter("crawl_failures_total", helpFailures, lab)
	}
	m.latency = reg.Histogram("crawl_request_seconds", helpLatency, nil)
	m.backoff = reg.Counter("crawl_backoff_seconds_total", helpBackoff)
	m.queue = reg.Gauge("crawl_queue_depth", helpQueue)
	return m
}

func (m *crawlMetrics) request(c category) {
	if m != nil {
		m.requests[c].Inc()
	}
}

func (m *crawlMetrics) failure(c category) {
	if m != nil {
		m.failures[c].Inc()
	}
}

// queued moves the queue-depth gauge by n batch items.
func (m *crawlMetrics) queued(n int) {
	if m != nil {
		m.queue.Add(float64(n))
	}
}

// retry attributes one extra attempt to its category and error class. The
// label set is dynamic (classes depend on what the platform throws), so
// the counter is looked up per event; retries are off the hot path.
func (m *crawlMetrics) retry(c category, err error) {
	if m != nil {
		m.reg.Counter("crawl_retries_total", helpRetries,
			obs.L("category", c.String()), obs.L("class", ErrorClass(err))).Inc()
	}
}

// timed runs fn under the latency histogram. The clock is only read when
// metrics are enabled, keeping the disabled path free of time syscalls.
func (m *crawlMetrics) timed(fn func() error) error {
	if m == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	m.latency.ObserveDuration(time.Since(start))
	return err
}

// timedSleep runs the backoff pause under the backoff-time counter.
func (m *crawlMetrics) timedSleep(sleep func()) {
	if m == nil {
		sleep()
		return
	}
	start := time.Now()
	sleep()
	m.backoff.AddDuration(time.Since(start))
}
