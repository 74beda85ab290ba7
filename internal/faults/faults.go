// Package faults injects deterministic, seed-driven failures into the
// simulated OSN's serving path. Real OSN crawls run for days against a
// platform that throttles, drops connections, serves partial pages and
// suspends accounts; the paper's Table 3 numbers come from exactly such a
// crawl. This package recreates that regime on demand so the crawl pipeline
// (crawler.Session at any worker count, store resume) can be tested against it
// under `go test -race`, and so `cmd/osnd -faults` can serve a hostile
// platform for end-to-end runs.
//
// Determinism is the load-bearing property: every fault decision is a pure
// function of (seed, request key, attempt number), via independent sim
// streams. Two runs over the same request sequence see the same faults at
// the same points, and a retried request sees an independent — but
// reproducible — draw, so chaos tests can assert bit-identical attack
// results with and without faults.
package faults

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/sim"
)

// Injected fault errors, as surfaced by the in-process Client decorator.
// Both are transient: the crawler is expected to retry them.
var (
	// ErrInjected stands in for an HTTP 5xx / internal server error.
	ErrInjected = errors.New("faults: injected server error")
	// ErrReset stands in for a dropped TCP connection.
	ErrReset = errors.New("faults: injected connection reset")
)

// Kind enumerates the failure modes the injector can produce.
type Kind int

const (
	// None leaves the request untouched.
	None Kind = iota
	// ServerError fails the request with a 5xx / ErrInjected.
	ServerError
	// Throttle returns a spurious rate-limit response (HTTP 503 /
	// osn.ErrThrottled) even though the platform did not throttle.
	Throttle
	// Reset aborts the connection mid-response (HTTP) or returns ErrReset
	// (in-process).
	Reset
	// Truncate serves the page cut off mid-body.
	Truncate
	// Garble serves the page cut off with trailing junk bytes appended.
	Garble
	numKinds = int(Garble) // fault kinds, excluding None
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ServerError:
		return "server-error"
	case Throttle:
		return "throttle"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Garble:
		return "garble"
	default:
		return "none"
	}
}

// Config sets per-request fault probabilities. Rates are independent
// probabilities in [0,1]; at most one fault fires per request (kinds are
// laid out on one uniform draw, in field order).
type Config struct {
	// Seed drives every decision. Same seed + same request sequence =
	// same faults.
	Seed uint64
	// ServerError is the probability of a 5xx.
	ServerError float64
	// Throttle is the probability of a spurious rate-limit response.
	Throttle float64
	// Reset is the probability of a connection abort.
	Reset float64
	// Truncate is the probability of a truncated body. HTTP only; the
	// in-process decorator maps it to ErrInjected.
	Truncate float64
	// Garble is the probability of a garbled body. HTTP only; the
	// in-process decorator maps it to ErrInjected.
	Garble float64
	// Latency is the probability of injected latency (drawn independently
	// of the failure kinds; a request can be both slow and faulted).
	Latency float64
	// MaxLatency bounds injected latency; zero disables latency faults.
	MaxLatency time.Duration
	// MaxConsecutive caps how many times in a row one request key can be
	// faulted, so a bounded-retry crawler is guaranteed to get through.
	// Zero means the default of 4.
	MaxConsecutive int
}

// Composite spreads one aggregate fault rate evenly across the five failure
// kinds — the "10% composite fault rate" of the chaos tests and the
// `osnd -faults 0.1` flag.
func Composite(rate float64, seed uint64) Config {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	per := rate / float64(numKinds)
	return Config{
		Seed:        seed,
		ServerError: per,
		Throttle:    per,
		Reset:       per,
		Truncate:    per,
		Garble:      per,
	}
}

// total is the aggregate failure probability.
func (c Config) total() float64 {
	return c.ServerError + c.Throttle + c.Reset + c.Truncate + c.Garble
}

// Stats counts injected faults by kind.
type Stats struct {
	ServerErrors int
	Throttles    int
	Resets       int
	Truncates    int
	Garbles      int
	Delays       int
	// Requests is the number of decisions taken.
	Requests int
}

// Total is the number of injected failures (latency excluded).
func (s Stats) Total() int {
	return s.ServerErrors + s.Throttles + s.Resets + s.Truncates + s.Garbles
}

// String summarizes the tally.
func (s Stats) String() string {
	return fmt.Sprintf("faults: %d/%d requests faulted (%d 5xx, %d throttle, %d reset, %d truncate, %d garble, %d delayed)",
		s.Total(), s.Requests, s.ServerErrors, s.Throttles, s.Resets, s.Truncates, s.Garbles, s.Delays)
}

// Injector makes deterministic fault decisions. Safe for concurrent use;
// note that decisions are keyed per request, so concurrent crawls see the
// same per-request faults regardless of interleaving.
type Injector struct {
	cfg  Config
	root *sim.Rand

	mu       sync.Mutex
	attempts map[string]int
	stats    Stats

	// kinds[k] counts injections of kind k; nil when uninstrumented.
	kinds     [numKinds + 1]*obs.Counter
	delays    *obs.Counter
	decisions *obs.Counter

	// lg records every injected fault as a "faults" event (nil = silent).
	lg *evlog.Logger
}

// New returns an injector for the config.
func New(cfg Config) *Injector {
	if cfg.MaxConsecutive <= 0 {
		cfg.MaxConsecutive = 4
	}
	return &Injector{
		cfg:      cfg,
		root:     sim.New(cfg.Seed),
		attempts: make(map[string]int),
	}
}

// Instrument publishes the injector's tally to the registry as
// faults_injected_total{kind=...}, faults_delays_total and
// faults_decisions_total, pre-registering every kind at zero so chaos
// tests (and scrapes of an idle osnd) can assert on the series before the
// first fault fires. A nil registry is a no-op. Returns the injector for
// chaining.
func (in *Injector) Instrument(reg *obs.Registry) *Injector {
	if reg == nil {
		return in
	}
	for k := ServerError; k <= Garble; k++ {
		in.kinds[k] = reg.Counter("faults_injected_total",
			"Faults injected into the serving path, by kind.", obs.L("kind", k.String()))
	}
	in.delays = reg.Counter("faults_delays_total", "Requests served with injected latency.")
	in.decisions = reg.Counter("faults_decisions_total", "Fault decisions taken (one per request attempt).")
	return in
}

// WithLog attaches an event logger: every injected fault and latency delay
// emits a "faults" warn event with its kind, request key and attempt, so a
// run report can line injected trouble up against the crawler's retries. A
// nil logger keeps the injector silent. Returns the injector for chaining.
func (in *Injector) WithLog(lg *evlog.Logger) *Injector {
	in.lg = lg
	return in
}

// Stats returns the running fault tally.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// stream derives the decision stream for one (key, attempt) pair.
func (in *Injector) stream(key string, attempt int) *sim.Rand {
	return in.root.Stream(key + "#" + strconv.Itoa(attempt))
}

// Decide returns the fault (and injected delay, possibly zero) for the next
// attempt of the request identified by key. Attempts are counted per key,
// so a retried request draws a fresh — but deterministic — decision, and
// after MaxConsecutive attempts the request is left alone, guaranteeing
// that a crawler with bounded retries makes progress.
func (in *Injector) Decide(key string) (Kind, time.Duration) {
	in.mu.Lock()
	attempt := in.attempts[key]
	in.attempts[key] = attempt + 1
	in.stats.Requests++
	in.mu.Unlock()
	in.decisions.Inc()

	var delay time.Duration
	r := in.stream(key, attempt)
	if in.cfg.MaxLatency > 0 && in.cfg.Latency > 0 && r.Float64() < in.cfg.Latency {
		delay = time.Duration(r.Float64() * float64(in.cfg.MaxLatency))
		in.count(func(s *Stats) { s.Delays++ })
		in.delays.Inc()
		in.lg.Warn(context.Background(), "faults", "latency injected",
			evlog.Str("key", key), evlog.Int("attempt", attempt),
			evlog.Dur("delay_ms", delay))
	}
	if attempt >= in.cfg.MaxConsecutive {
		return None, delay
	}
	p := r.Float64()
	kind := None
	switch {
	case p < in.cfg.ServerError:
		in.count(func(s *Stats) { s.ServerErrors++ })
		kind = ServerError
	case p < in.cfg.ServerError+in.cfg.Throttle:
		in.count(func(s *Stats) { s.Throttles++ })
		kind = Throttle
	case p < in.cfg.ServerError+in.cfg.Throttle+in.cfg.Reset:
		in.count(func(s *Stats) { s.Resets++ })
		kind = Reset
	case p < in.cfg.ServerError+in.cfg.Throttle+in.cfg.Reset+in.cfg.Truncate:
		in.count(func(s *Stats) { s.Truncates++ })
		kind = Truncate
	case p < in.cfg.total():
		in.count(func(s *Stats) { s.Garbles++ })
		kind = Garble
	}
	if kind != None {
		in.kinds[kind].Inc()
		in.lg.Warn(context.Background(), "faults", "fault injected",
			evlog.Str("kind", kind.String()), evlog.Str("key", key),
			evlog.Int("attempt", attempt))
	}
	return kind, delay
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// mangleStream derives the body-mangling stream for a (key, attempt) pair,
// independent of the decision stream.
func (in *Injector) mangleStream(key string, attempt int) *sim.Rand {
	return in.root.Stream("mangle/" + key + "#" + strconv.Itoa(attempt))
}

// TruncateHTML cuts the page at a random interior point — the shape a
// half-written response has when the connection dies mid-transfer. The cut
// point is drawn from r, so callers with a fixed stream get a fixed cut.
func TruncateHTML(page string, r *sim.Rand) string {
	if len(page) < 2 {
		return ""
	}
	return page[:1+r.Intn(len(page)-1)]
}

// garbleJunk is what a garbled response trails off into: an opened tag that
// never closes, with attribute quoting left dangling. Parsers must treat
// the page as malformed rather than silently dropping the damaged rows.
const garbleJunk = `<div class="result" data-id="\x00\xff#garbled`

// GarbleHTML cuts the page like TruncateHTML and appends junk bytes — a
// response whose tail was overwritten by garbage rather than merely lost.
func GarbleHTML(page string, r *sim.Rand) string {
	return TruncateHTML(page, r) + garbleJunk
}
