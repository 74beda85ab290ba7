package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mix is the relative request weighting across the three steady-state
// endpoints, mirroring the paper's crawl composition (Table 3: a few
// searches, then profile and friend-list fetches dominating).
type Mix struct {
	Search  int
	Profile int
	Friends int
}

// DefaultMix approximates the attack's request composition.
func DefaultMix() Mix { return Mix{Search: 1, Profile: 8, Friends: 4} }

// ParseMix parses "search=1,profile=8,friends=4"; omitted keys are 0.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix term %q (want key=weight)", part)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad mix weight %q", part)
		}
		switch k {
		case "search":
			m.Search = n
		case "profile":
			m.Profile = n
		case "friends":
			m.Friends = n
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix key %q", k)
		}
	}
	if m.Search+m.Profile+m.Friends == 0 {
		return Mix{}, fmt.Errorf("loadgen: mix has zero total weight")
	}
	return m, nil
}

// Config shapes one load run.
type Config struct {
	// BaseURL is the osnd address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Rate > 0 (at most 1e9) runs open-loop at that many requests/sec on a
	// fixed arrival schedule. Rate == 0 runs closed-loop: Workers goroutines
	// each issue the next request as soon as the previous completes
	// (max-throughput mode).
	Rate    float64
	Workers int
	// Duration is the measured window, after Warmup (excluded from stats).
	Duration time.Duration
	Warmup   time.Duration
	Mix      Mix
	// Accounts to register for crawling; requests round-robin over them.
	Accounts int
	// Targets caps how many profile IDs the prep phase harvests via search.
	Targets int
	// SchoolID scopes searches; negative picks the first school listed.
	SchoolID int
	// Timeout bounds each request.
	Timeout time.Duration
	// MaxInflight caps concurrent open-loop requests; arrivals beyond the
	// cap are counted as dropped, never delayed — delaying them would be
	// coordinated omission. 0 defaults to 512.
	MaxInflight int
	// Seed drives the deterministic per-index endpoint/target pick.
	Seed uint64
}

// ErrConfig is wrapped by the error Run returns for a Config it cannot
// run; the message names every bad field.
var ErrConfig = errors.New("loadgen: invalid config")

// maxRate is the highest open-loop rate whose arrival interval is still
// at least one nanosecond; above it the schedule would never advance.
const maxRate = 1e9

// validate checks a defaulted Config before any request is sent.
func (c Config) validate() error {
	var bad []string
	if c.BaseURL == "" {
		bad = append(bad, "BaseURL is required")
	}
	if !(c.Rate >= 0 && c.Rate <= maxRate) { // also rejects NaN
		bad = append(bad, fmt.Sprintf("Rate %v is outside [0, %g]", c.Rate, maxRate))
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Workers", int64(c.Workers)},
		{"Duration", int64(c.Duration)},
		{"Warmup", int64(c.Warmup)},
		{"Mix.Search", int64(c.Mix.Search)},
		{"Mix.Profile", int64(c.Mix.Profile)},
		{"Mix.Friends", int64(c.Mix.Friends)},
		{"Accounts", int64(c.Accounts)},
		{"Targets", int64(c.Targets)},
		{"Timeout", int64(c.Timeout)},
		{"MaxInflight", int64(c.MaxInflight)},
	} {
		if f.v < 0 {
			bad = append(bad, fmt.Sprintf("%s is negative", f.name))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrConfig, strings.Join(bad, "; "))
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Mix == (Mix{}) {
		c.Mix = DefaultMix()
	}
	if c.Accounts == 0 {
		c.Accounts = 4
	}
	if c.Targets == 0 {
		c.Targets = 256
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Outcome classifies one completed request for the error taxonomy.
type Outcome int

const (
	OK         Outcome = iota
	Hidden             // 410: friend list or profile withheld — an application answer, not a failure
	NotFound           // 404
	Throttled          // 503 from the platform's throttle
	Shed               // 503 from a concurrency limiter (overload envelope)
	Suspended          // 429
	Client4xx          // any other 4xx
	Server5xx          // 5xx
	Malformed          // 200 whose body fails the cheap shape check
	NetTimeout         // transport timeout
	NetError           // any other transport error
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "hidden", "not_found", "throttled", "shed", "suspended",
	"client_4xx", "server_5xx", "malformed", "net_timeout", "net_error",
}

// epStats accumulates per-endpoint results.
type epStats struct {
	hist     Hist
	outcomes [numOutcomes]atomic.Uint64
}

func (s *epStats) record(o Outcome, latency time.Duration) {
	s.outcomes[o].Add(1)
	s.hist.Observe(latency)
}

// EndpointReport is the per-endpoint section of a Report.
type EndpointReport struct {
	Requests  uint64            `json:"requests"`
	RPS       float64           `json:"rps"`
	MeanUs    int64             `json:"mean_us"`
	P50Us     int64             `json:"p50_us"`
	P95Us     int64             `json:"p95_us"`
	P99Us     int64             `json:"p99_us"`
	MaxUs     int64             `json:"max_us"`
	Errors    map[string]uint64 `json:"errors,omitempty"`
	ErrorRate float64           `json:"error_rate"`
	// HistLowsUs/HistCounts are the non-empty histogram buckets (lower
	// bound in µs, count), so downstream tools can re-aggregate.
	HistLowsUs []uint64 `json:"hist_lows_us,omitempty"`
	HistCounts []uint64 `json:"hist_counts,omitempty"`
}

// Report is the machine-readable result of a run.
type Report struct {
	BaseURL    string                     `json:"base_url"`
	OpenLoop   bool                       `json:"open_loop"`
	RateTarget float64                    `json:"rate_target,omitempty"`
	Workers    int                        `json:"workers,omitempty"`
	Seconds    float64                    `json:"seconds"`
	Requests   uint64                     `json:"requests"`
	RPS        float64                    `json:"rps"`
	Dropped    uint64                     `json:"dropped"`
	Endpoints  map[string]*EndpointReport `json:"endpoints"`
	Overall    *EndpointReport            `json:"overall"`
	// WarmupErrors counts the warm-up requests' outcomes beyond 200, by
	// name. Warm-up keeps no latency, but a server failing during it must
	// still show.
	WarmupErrors map[string]uint64 `json:"warmup_errors,omitempty"`
}

// failure reports whether an outcome counts against the error rate.
// Hidden/NotFound/Throttled/Suspended are the platform answering as
// designed; the rest mean the serving plane (or the network) broke.
func failure(o Outcome) bool {
	switch o {
	case OK, Hidden, NotFound, Throttled, Suspended:
		return false
	}
	return true
}

// gen is one prepared run: URL tables plus live stats.
type gen struct {
	cfg     Config
	hc      *http.Client
	search  []string // one per (account, page) pair
	profile []string // one per (target, account) pair
	friends []string // one per (target, page, account) pair
	stats   [3]epStats
	warmup  [numOutcomes]atomic.Uint64
	dropped atomic.Uint64
}

var epNames = [3]string{"search", "profile", "friends"}

// splitmix64 is the same deterministic index hash sim uses for identity-
// keyed streams: the i-th request's endpoint and target depend only on
// (seed, i), never on scheduling.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run executes the configured load: prep (register accounts, harvest
// targets, precompute URL tables), warmup, then the measured window. A
// Config it cannot run fails with an error wrapping ErrConfig before any
// request is sent.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &gen{
		cfg: cfg,
		hc: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.MaxInflight + cfg.Workers,
				MaxIdleConnsPerHost: cfg.MaxInflight + cfg.Workers,
			},
		},
	}
	if err := g.prep(ctx); err != nil {
		return nil, err
	}
	if cfg.Rate > 0 {
		return g.openLoop(ctx)
	}
	return g.closedLoop(ctx)
}

// prep registers accounts, harvests target profile IDs through search
// (the only discovery surface a stranger has — same as the attack), and
// precomputes every URL the run can issue so the hot loop only indexes
// string tables.
func (g *gen) prep(ctx context.Context) error {
	base := strings.TrimRight(g.cfg.BaseURL, "/")
	tokens := make([]string, 0, g.cfg.Accounts)
	for i := 0; i < g.cfg.Accounts; i++ {
		form := url.Values{"name": {fmt.Sprintf("loadgen%d", i)}, "birth": {"1985-01-01"}}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/register",
			strings.NewReader(form.Encode()))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		resp, err := g.hc.Do(req)
		if err != nil {
			return fmt.Errorf("loadgen: register: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: register: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		tok := jsonField(string(body), "token")
		if tok == "" {
			return fmt.Errorf("loadgen: register: no token in %q", body)
		}
		tokens = append(tokens, tok)
	}

	schoolID := g.cfg.SchoolID
	if schoolID < 0 {
		body, err := g.fetch(ctx, base+"/api/v1/schools")
		if err != nil {
			return fmt.Errorf("loadgen: schools: %w", err)
		}
		id := jsonField(body, "id")
		if id == "" {
			return fmt.Errorf("loadgen: no schools served")
		}
		if schoolID, err = strconv.Atoi(id); err != nil {
			return fmt.Errorf("loadgen: bad school id %q", id)
		}
	}

	// Harvest target IDs by paging search on account 0, and remember how
	// deep the result set goes so the search mix exercises every page.
	var targets []string
	pages := 0
	for page := 0; len(targets) < g.cfg.Targets; page++ {
		body, err := g.fetch(ctx, fmt.Sprintf("%s/api/v1/search?school=%d&page=%d&acct=%s",
			base, schoolID, page, url.QueryEscape(tokens[0])))
		if err != nil {
			return fmt.Errorf("loadgen: harvest page %d: %w", page, err)
		}
		ids := jsonIDs(body)
		targets = append(targets, ids...)
		pages = page + 1
		if !strings.Contains(body, `"more":true`) || len(ids) == 0 {
			break
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("loadgen: search returned no targets (school %d)", schoolID)
	}
	if len(targets) > g.cfg.Targets {
		targets = targets[:g.cfg.Targets]
	}

	for _, tok := range tokens {
		esc := url.QueryEscape(tok)
		for p := 0; p < pages; p++ {
			g.search = append(g.search, fmt.Sprintf("%s/api/v1/search?school=%d&page=%d&acct=%s", base, schoolID, p, esc))
		}
	}
	for i, id := range targets {
		esc := url.QueryEscape(tokens[i%len(tokens)])
		g.profile = append(g.profile, fmt.Sprintf("%s/api/v1/profile/%s?acct=%s", base, url.PathEscape(id), esc))
		for p := 0; p < 2; p++ {
			g.friends = append(g.friends, fmt.Sprintf("%s/api/v1/friends/%s?page=%d&acct=%s", base, url.PathEscape(id), p, esc))
		}
	}
	return nil
}

func (g *gen) fetch(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return string(body), nil
}

// jsonField extracts the first string value for key from a JSON body. The
// prep phase's needs are narrow enough (token, first school id) that a
// scanner beats pulling a decoder into the hot package.
func jsonField(body, key string) string {
	marker := `"` + key + `":`
	i := strings.Index(body, marker)
	if i < 0 {
		return ""
	}
	rest := body[i+len(marker):]
	if strings.HasPrefix(rest, `"`) {
		rest = rest[1:]
		if j := strings.IndexByte(rest, '"'); j >= 0 {
			return rest[:j]
		}
		return ""
	}
	j := strings.IndexAny(rest, ",}")
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// jsonIDs extracts every `"id":"..."` value from a result page.
func jsonIDs(body string) []string {
	var out []string
	for {
		i := strings.Index(body, `"id":"`)
		if i < 0 {
			return out
		}
		body = body[i+len(`"id":"`):]
		j := strings.IndexByte(body, '"')
		if j < 0 {
			return out
		}
		out = append(out, body[:j])
		body = body[j:]
	}
}

// pick resolves the i-th request's endpoint and URL deterministically.
func (g *gen) pick(i uint64) (ep int, url string) {
	h := splitmix64(g.cfg.Seed ^ i)
	total := g.cfg.Mix.Search + g.cfg.Mix.Profile + g.cfg.Mix.Friends
	w := int(h % uint64(total))
	h = splitmix64(h)
	switch {
	case w < g.cfg.Mix.Search:
		return 0, g.search[h%uint64(len(g.search))]
	case w < g.cfg.Mix.Search+g.cfg.Mix.Profile:
		return 1, g.profile[h%uint64(len(g.profile))]
	default:
		return 2, g.friends[h%uint64(len(g.friends))]
	}
}

// do issues one request and records its outcome: with its latency, measured
// from `from` — the scheduled arrival in open-loop mode, so queueing delay
// the server caused is charged to the server — or, during warm-up, as a
// warm-up outcome alone.
func (g *gen) do(ctx context.Context, ep int, url string, from time.Time, record bool) {
	out := g.classify(ctx, url)
	if !record {
		g.warmup[out].Add(1)
		return
	}
	g.stats[ep].record(out, time.Since(from))
}

// classify issues one request and classifies its outcome.
func (g *gen) classify(ctx context.Context, url string) Outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return NetError
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		if isTimeout(err) {
			return NetTimeout
		}
		return NetError
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case rerr != nil:
		return NetError
	case resp.StatusCode == http.StatusOK:
		if len(body) < 2 || body[0] != '{' || body[len(body)-1] != '}' {
			return Malformed
		}
		return OK
	case resp.StatusCode == http.StatusGone:
		return Hidden
	case resp.StatusCode == http.StatusNotFound:
		return NotFound
	case resp.StatusCode == http.StatusServiceUnavailable:
		if strings.Contains(string(body), `"code":"overload"`) {
			return Shed
		}
		return Throttled
	case resp.StatusCode == http.StatusTooManyRequests:
		return Suspended
	case resp.StatusCode >= 500:
		return Server5xx
	}
	return Client4xx
}

func isTimeout(err error) bool {
	type timeout interface{ Timeout() bool }
	for e := err; e != nil; {
		if t, ok := e.(timeout); ok && t.Timeout() {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// openLoop fires requests on the fixed arrival schedule. An arrival that
// finds the inflight cap exhausted is dropped and counted — not delayed,
// which would let a slow server throttle its own measurement.
func (g *gen) openLoop(ctx context.Context) (*Report, error) {
	cfg := g.cfg
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	end := measureFrom.Add(cfg.Duration)
	sem := make(chan struct{}, cfg.MaxInflight)
	var wg sync.WaitGroup
	var i uint64
	for {
		sched := start.Add(time.Duration(i) * interval)
		if sched.After(end) || ctx.Err() != nil {
			break
		}
		// Sleep coarsely, then spin the last stretch: timer overshoot
		// (hundreds of µs on a loaded box) would otherwise be charged to
		// the server as arrival-queueing latency.
		const spin = 100 * time.Microsecond
		if d := time.Until(sched); d > spin {
			time.Sleep(d - spin)
		}
		for time.Now().Before(sched) {
			runtime.Gosched() // on small GOMAXPROCS the arrival loop must not starve the request goroutines
		}
		record := !sched.Before(measureFrom)
		select {
		case sem <- struct{}{}:
			ep, url := g.pick(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				g.do(ctx, ep, url, sched, record)
			}()
		default:
			if record {
				g.dropped.Add(1)
			}
		}
		i++
	}
	wg.Wait()
	return g.report(true, cfg.Duration), ctx.Err()
}

// closedLoop runs Workers tight request loops; latency is pure service
// time (no arrival schedule), which is what a max-throughput sweep wants.
func (g *gen) closedLoop(ctx context.Context) (*Report, error) {
	cfg := g.cfg
	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	end := measureFrom.Add(cfg.Duration)
	var next uint64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				now := time.Now()
				if now.After(end) {
					return
				}
				i := atomic.AddUint64(&next, 1) - 1
				ep, url := g.pick(i)
				g.do(ctx, ep, url, now, now.After(measureFrom))
			}
		}()
	}
	wg.Wait()
	return g.report(false, cfg.Duration), ctx.Err()
}

// report assembles the final Report from the per-endpoint stats.
func (g *gen) report(openLoop bool, window time.Duration) *Report {
	secs := window.Seconds()
	rep := &Report{
		BaseURL:   g.cfg.BaseURL,
		OpenLoop:  openLoop,
		Seconds:   secs,
		Dropped:   g.dropped.Load(),
		Endpoints: make(map[string]*EndpointReport, len(epNames)),
	}
	if openLoop {
		rep.RateTarget = g.cfg.Rate
	} else {
		rep.Workers = g.cfg.Workers
	}
	overall := &epStats{}
	for i := range g.stats {
		s := &g.stats[i]
		rep.Endpoints[epNames[i]] = endpointReport(s, secs)
		overall.hist.Merge(&s.hist)
		for o := range s.outcomes {
			overall.outcomes[o].Add(s.outcomes[o].Load())
		}
		rep.Requests += s.hist.Count()
	}
	rep.RPS = float64(rep.Requests) / secs
	rep.Overall = endpointReport(overall, secs)
	for o := OK + 1; o < numOutcomes; o++ {
		if c := g.warmup[o].Load(); c != 0 {
			if rep.WarmupErrors == nil {
				rep.WarmupErrors = make(map[string]uint64)
			}
			rep.WarmupErrors[outcomeNames[o]] = c
		}
	}
	return rep
}

func endpointReport(s *epStats, secs float64) *EndpointReport {
	n := s.hist.Count()
	r := &EndpointReport{
		Requests: n,
		RPS:      float64(n) / secs,
		MeanUs:   s.hist.Mean().Microseconds(),
		P50Us:    s.hist.Quantile(0.50).Microseconds(),
		P95Us:    s.hist.Quantile(0.95).Microseconds(),
		P99Us:    s.hist.Quantile(0.99).Microseconds(),
		MaxUs:    s.hist.Max().Microseconds(),
	}
	var failures uint64
	for o := Outcome(0); o < numOutcomes; o++ {
		c := s.outcomes[o].Load()
		if c == 0 || o == OK {
			continue
		}
		if r.Errors == nil {
			r.Errors = make(map[string]uint64)
		}
		r.Errors[outcomeNames[o]] = c
		if failure(o) {
			failures += c
		}
	}
	if n > 0 {
		r.ErrorRate = float64(failures) / float64(n)
	}
	r.HistLowsUs, r.HistCounts = s.hist.Buckets()
	return r
}
