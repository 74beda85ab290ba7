package osn

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn/telemetry"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
	"hsprofiler/internal/worldgen"
)

// Errors returned by platform endpoints. The HTTP layer maps these to
// status codes; the crawler maps them back.
var (
	ErrUnderage     = errors.New("osn: users must be at least 13 to register")
	ErrUnauthorized = errors.New("osn: unknown or invalid account token")
	ErrSuspended    = errors.New("osn: account suspended for excessive requests")
	ErrThrottled    = errors.New("osn: rate limited, retry later")
	ErrNotFound     = errors.New("osn: no such user")
	ErrHidden       = errors.New("osn: friend list not visible to strangers")
	ErrNoSchool     = errors.New("osn: no such school")
	// ErrMalformed reports a page that failed structural validation on the
	// client side. It lives here (rather than in osnhttp, which aliases it)
	// so the crawler can classify it without importing the HTTP layer.
	ErrMalformed = errors.New("osnhttp: malformed page")
)

// Config tunes the platform's serving behaviour. Zero values get defaults
// from DefaultConfig; negative values are normalized (counts to their
// defaults or "disabled", the window to the default window).
type Config struct {
	// SearchPerAccount caps how many distinct results one account can pull
	// out of a school search by scrolling (the paper's "few hundred").
	SearchPerAccount int
	// SearchPageSize is results per search request (one AJAX fetch).
	SearchPageSize int
	// FriendPageSize is friends per friend-list request; Facebook used 20.
	FriendPageSize int
	// RequestBudget is the per-account lifetime request ceiling before the
	// anti-crawl system suspends the account; 0 means unlimited.
	RequestBudget int
	// ThrottleLimit and ThrottleWindow enable adaptive anti-crawl rate
	// limiting: more than ThrottleLimit requests from one account within
	// ThrottleWindow yields ErrThrottled until the window drains. This is
	// the behaviour the paper's crawlers dodged with sleep functions.
	// Zero ThrottleLimit disables throttling. A positive ThrottleLimit
	// with a zero ThrottleWindow gets the default window — a zero window
	// would hold no requests and silently never throttle.
	ThrottleLimit  int
	ThrottleWindow time.Duration
}

// DefaultConfig mirrors the paper's observed serving parameters.
func DefaultConfig() Config {
	return Config{
		SearchPerAccount: 400,
		SearchPageSize:   40,
		FriendPageSize:   20,
		RequestBudget:    0,
		// ThrottleWindow only takes effect when ThrottleLimit > 0; it is
		// the window a limit-only Config gets.
		ThrottleWindow: time.Minute,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SearchPerAccount <= 0 {
		c.SearchPerAccount = d.SearchPerAccount
	}
	if c.SearchPageSize <= 0 {
		c.SearchPageSize = d.SearchPageSize
	}
	if c.FriendPageSize <= 0 {
		c.FriendPageSize = d.FriendPageSize
	}
	if c.RequestBudget < 0 {
		c.RequestBudget = 0 // negative makes no sense; treat as unlimited
	}
	if c.ThrottleLimit < 0 {
		c.ThrottleLimit = 0 // reject negatives: throttling disabled
	}
	if c.ThrottleWindow <= 0 {
		// A zero (or negative) window with a positive limit would make the
		// cutoff "now": the window never holds any request and the limiter
		// silently misbehaves. Default it like the other fields.
		c.ThrottleWindow = d.ThrottleWindow
	}
	return c
}

// SchoolRef is the public handle of a school, as discoverable through the
// platform's search portal (or from Wikipedia, as the paper notes for
// school sizes).
type SchoolRef struct {
	ID   int
	Name string
	City string
}

// SearchResult is one row of a Find-Friends school search.
type SearchResult struct {
	ID   PublicID
	Name string
}

// FriendRef is one entry of a paginated friend list.
type FriendRef struct {
	ID   PublicID
	Name string
}

// Platform serves a world under a policy. It is split into two planes:
//
//   - The read plane is an immutable epoch object (the frozen CSR graph,
//     pre-resolved profiles, friend lists, policy gates, search indexes
//     and the school table) behind an atomic pointer. Search, Profile,
//     FriendPage and GraphSearch pin the current epoch for the request's
//     duration and read it with no lock at all, so read throughput scales
//     with cores and an epoch swap never blocks serving.
//   - The control plane holds the only mutable state — per-account
//     throttle windows, request budgets, suspensions and cached search
//     views — sharded by token hash with per-shard locks, so accounts
//     never contend with each other.
//
// A static platform has exactly one epoch for its lifetime. Temporal
// serving mutates the world off the read path (worldgen.Evolve) and calls
// AdvanceEpoch to build-swap-retire: in-flight pagination cursors stay
// consistent within the epoch they pinned, and the retired epoch is
// released once its last reader drains.
//
// All exported methods are safe for concurrent use (the HTTP front end
// calls them from many goroutines).
type Platform struct {
	world *worldgen.World
	// policy is the policy for the NEXT epoch build (SetPolicy replaces
	// it); each epoch carries its own policy snapshot for serving.
	policy *Policy
	cfg    Config
	// seed is the world's seed, copied so the per-account view hash never
	// reads the world struct while evolution mutates it.
	seed uint64

	// pub/byPub map world IDs to public IDs. The population is fixed at
	// generation (evolution changes roles and edges, never the ID space),
	// so the mapping is platform-global and immortal across epochs.
	pub   []PublicID
	byPub map[PublicID]socialgraph.UserID

	// cur is the current serving epoch (see epoch.go).
	cur atomic.Pointer[epoch]

	// freezeDur is how long the construction freeze step took (exposed via
	// Instrument).
	freezeDur time.Duration

	ctl *controlPlane

	// readReq/ctlReq count requests by plane; nil until Instrument, which
	// must run before serving starts.
	readReq, ctlReq *obs.Counter
	// Epoch-rotation instruments (nil-safe until Instrument).
	epochSeqG, epochsLiveG, epochBuildG *obs.Gauge
	frozenUsersG, frozenEdgesG          *obs.Gauge
	epochAdvances, epochRetired         *obs.Counter

	// lg is the event logger (nil = silent); set by WithLog before serving.
	lg *evlog.Logger

	// tel is the behavioral telemetry table (nil = no recording); set by
	// WithTelemetry before serving. Recording happens after a request
	// passes the charge gate, so telemetry sees exactly the traffic that
	// reached the read plane.
	tel *telemetry.Table
}

// NewPlatform builds a platform over the world. The world must not be
// structurally mutated while the platform serves it.
func NewPlatform(w *worldgen.World, pol *Policy, cfg Config) *Platform {
	return NewPlatformContext(context.Background(), w, pol, cfg)
}

// NewPlatformContext is NewPlatform with the construction wrapped in an
// "osn.freeze" trace span (a no-op without a trace in ctx): the freeze
// step is the one-time cost that buys the lock-free read plane, and run
// manifests should show it as a phase of its own.
func NewPlatformContext(ctx context.Context, w *worldgen.World, pol *Policy, cfg Config) *Platform {
	_, span := obs.StartSpan(ctx, "osn.freeze")
	defer span.End()
	start := time.Now()
	p := &Platform{
		world:  w,
		policy: pol,
		cfg:    cfg.withDefaults(),
		seed:   w.Seed,
		byPub:  make(map[PublicID]socialgraph.UserID),
		ctl:    newControlPlane(),
	}
	p.assignPublicIDs()
	p.cur.Store(p.buildEpoch(0, pol))
	p.freezeDur = time.Since(start)
	return p
}

// World exposes the underlying ground truth. It exists for the evaluation
// layer only; attack code must not touch it.
func (p *Platform) World() *worldgen.World { return p.world }

// Policy returns the policy the current epoch serves under.
func (p *Platform) Policy() *Policy { return p.cur.Load().policy }

// FriendPageSize reports the pagination constant p (paper: 20), which the
// effort model A·R + |S| + |C|·f/p needs.
func (p *Platform) FriendPageSize() int { return p.cfg.FriendPageSize }

// FrozenGraph exposes the current epoch's CSR snapshot of the friendship
// graph, for evaluation and analysis code that would otherwise hash its
// way through the mutable graph. Attack code must not touch it.
func (p *Platform) FrozenGraph() *socialgraph.Frozen { return p.cur.Load().read.frozen }

// FreezeDuration reports how long the construction-time freeze step took.
func (p *Platform) FreezeDuration() time.Duration { return p.freezeDur }

// Instrument registers the platform's metrics on reg and returns p:
// requests by plane (read vs control), per-shard contention counters, and
// freeze-step gauges. Call before serving begins; a nil registry leaves
// the platform un-instrumented.
func (p *Platform) Instrument(reg *obs.Registry) *Platform {
	if reg == nil {
		return p
	}
	const reqHelp = "Platform requests by plane (read = lock-free serving, control = account state)."
	p.readReq = reg.Counter("osn_plane_requests_total", reqHelp, obs.L("plane", "read"))
	p.ctlReq = reg.Counter("osn_plane_requests_total", reqHelp, obs.L("plane", "control"))
	for i := range p.ctl.shards {
		p.ctl.shards[i].contention = reg.Counter(
			"osn_shard_contention_total",
			"Control-plane shard lock acquisitions that had to wait.",
			obs.L("shard", strconv.Itoa(i)),
		)
	}
	e := p.cur.Load()
	reg.Gauge("osn_freeze_seconds", "Duration of the construction-time freeze step.").Set(p.freezeDur.Seconds())
	p.frozenUsersG = reg.Gauge("osn_frozen_users", "Users in the frozen social graph.")
	p.frozenUsersG.Set(float64(e.read.frozen.NumUsers()))
	p.frozenEdgesG = reg.Gauge("osn_frozen_edges", "Friendships in the frozen social graph.")
	p.frozenEdgesG.Set(float64(e.read.frozen.NumEdges()))
	p.epochSeqG = reg.Gauge("osn_epoch_seq", "Current serving epoch id (monotonic).")
	p.epochSeqG.Set(float64(e.seq))
	p.epochsLiveG = reg.Gauge("osn_epochs_live", "Epochs not yet drained (current + retiring).")
	p.epochsLiveG.Set(1)
	p.epochBuildG = reg.Gauge("osn_epoch_build_seconds", "Duration of the last epoch build (off the read path).")
	p.epochAdvances = reg.Counter("osn_epoch_advances_total", "Epoch swaps since start.")
	p.epochRetired = reg.Counter("osn_epochs_retired_total", "Epochs fully drained and retired.")
	return p
}

// WithLog attaches an event logger. The platform then narrates its policy
// decisions and anti-crawl transitions: "osn.gate" events for every denial
// the paper's attack ran into (underage registrations, hidden friend lists,
// minors excluded from search views) and "osn.acct" events for the account
// life cycle (registered, throttled, the suspension transition). Shard-lock
// contention emits sampled "osn.shard" debug events. Call before serving
// begins; a nil logger leaves the platform silent. Returns p for chaining.
func (p *Platform) WithLog(lg *evlog.Logger) *Platform {
	p.lg = lg
	for i := range p.ctl.shards {
		p.ctl.shards[i].lg = lg
		p.ctl.shards[i].idx = i
	}
	return p
}

// WithTelemetry attaches the behavioral telemetry table: every serving
// method records its request shape (account token, surface, target) after
// the charge gate admits it. A nil table keeps recording a no-op.
// Telemetry never touches response bytes — attack results are identical
// with it on or off. Call before serving begins; returns p for chaining.
func (p *Platform) WithTelemetry(t *telemetry.Table) *Platform {
	p.tel = t
	return p
}

// Telemetry returns the attached table (nil when telemetry is off).
func (p *Platform) Telemetry() *telemetry.Table { return p.tel }

func (p *Platform) assignPublicIDs() {
	rng := sim.New(p.seed).Stream("publicids")
	p.pub = make([]PublicID, len(p.world.People))
	for _, person := range p.world.People {
		if !person.HasAccount {
			continue
		}
		var id PublicID
		for {
			id = PublicID("u" + strconv.FormatUint(rng.Uint64()&0xffffffffff, 36))
			if _, taken := p.byPub[id]; !taken {
				break
			}
		}
		p.pub[person.ID] = id
		p.byPub[id] = person.ID
	}
}

// CitySearch returns one page of users whose profiles place them in the
// city, as seen by the account. Like the school search it never returns
// registered minors ("does not list minors when searching for users by
// high school or city") and caps each account's view.
func (p *Platform) CitySearch(token, city string, page int) (results []SearchResult, more bool, err error) {
	results, more, _, err = p.CitySearchEpoch(token, city, page)
	return results, more, err
}

// CitySearchEpoch is CitySearch plus the id of the epoch that served the
// page (the wire layer's consistency token).
func (p *Platform) CitySearchEpoch(token, city string, page int) (results []SearchResult, more bool, epochID uint64, err error) {
	e := p.pin()
	defer p.unpin(e)
	results, more, err = p.citySearch(e, token, city, page)
	return results, more, e.seq, err
}

func (p *Platform) citySearch(e *epoch, token, city string, page int) (results []SearchResult, more bool, err error) {
	if err := p.charge(token); err != nil {
		return nil, false, err
	}
	p.readReq.Inc()
	if page < 0 {
		return nil, false, fmt.Errorf("osn: negative page")
	}
	p.tel.RecordSearch(token)
	key := strings.ToLower(city)
	scope := "city:" + key
	view := p.cachedResults(e, token, scope, e.cachePrefix+scope, e.cityIndex[key])
	start := page * p.cfg.SearchPageSize
	if start >= len(view) {
		return nil, false, nil
	}
	end := start + p.cfg.SearchPageSize
	if end > len(view) {
		end = len(view)
	}
	return view[start:end], end < len(view), nil
}

// PublicIDOf reports the public ID of a world user, for evaluation code
// that needs to compare attacker output against ground truth. Returns false
// if the person has no account.
func (p *Platform) PublicIDOf(id socialgraph.UserID) (PublicID, bool) {
	if int(id) >= len(p.pub) || p.pub[id] == "" {
		return "", false
	}
	return p.pub[id], true
}

// UserIDOf resolves a public ID back to the world ID (evaluation only).
func (p *Platform) UserIDOf(id PublicID) (socialgraph.UserID, bool) {
	u, ok := p.byPub[id]
	return u, ok
}

// RegisterAccount creates a third-party account. This is where the COPPA
// age gate lives: a birth date under 13 years before the serving epoch's
// current date is rejected — which is exactly why the paper's under-13
// users lied. The gate reads the pinned epoch's clock, never the live
// world, so registration during an evolution step sees a consistent date.
func (p *Platform) RegisterAccount(name string, birth sim.Date) (token string, err error) {
	e := p.pin()
	now := e.now
	p.unpin(e)
	if birth.AgeAt(now) < 13 {
		p.lg.Warn(context.Background(), "osn.gate", "underage registration rejected",
			evlog.Str("name", name), evlog.Int("age", birth.AgeAt(now)))
		return "", ErrUnderage
	}
	p.ctlReq.Inc()
	seq := p.ctl.nextAcct.Add(1)
	token = fmt.Sprintf("acct-%d-%s", seq, name)
	s := p.ctl.shardFor(token)
	s.lock()
	s.accounts[token] = &account{token: token}
	s.mu.Unlock()
	p.lg.Info(context.Background(), "osn.acct", "account registered", evlog.Str("token", token))
	return token, nil
}

// charge authenticates the token and counts one request against its budget
// and throttle window. It is the control-plane half of every request; the
// only lock it takes is the token's shard.
func (p *Platform) charge(token string) error {
	p.ctlReq.Inc()
	s := p.ctl.shardFor(token)
	s.lock()
	defer s.mu.Unlock()
	a := s.lookup(token)
	if a == nil {
		p.lg.Warn(context.Background(), "osn.gate", "unknown account token", evlog.Str("token", token))
		return ErrUnauthorized
	}
	if a.suspended {
		return ErrSuspended
	}
	if p.cfg.ThrottleLimit > 0 {
		now := p.ctl.now()
		cutoff := now.Add(-p.cfg.ThrottleWindow)
		keep := a.recent[:0]
		for _, ts := range a.recent {
			if ts.After(cutoff) {
				keep = append(keep, ts)
			}
		}
		a.recent = keep
		if len(a.recent) >= p.cfg.ThrottleLimit {
			// A throttled request does not consume budget; the crawler is
			// expected to back off and retry.
			p.lg.Warn(context.Background(), "osn.acct", "request throttled",
				evlog.Str("token", token), evlog.Int("in_window", len(a.recent)))
			return ErrThrottled
		}
		a.recent = append(a.recent, now)
	}
	a.requests++
	if p.cfg.RequestBudget > 0 && a.requests > p.cfg.RequestBudget {
		a.suspended = true
		// The false→true transition — logged exactly once per account.
		p.lg.Warn(context.Background(), "osn.acct", "account suspended",
			evlog.Str("token", token), evlog.Int("requests", a.requests))
		return ErrSuspended
	}
	return nil
}

// SetClock replaces the platform's time source (tests use a fake clock to
// drive the throttle window deterministically).
func (p *Platform) SetClock(clock func() time.Time) {
	p.ctl.clock.Store(clock)
}

// RequestsServed reports how many requests the account has made
// (anti-crawl bookkeeping; visible in tests).
func (p *Platform) RequestsServed(token string) int {
	s := p.ctl.shardFor(token)
	s.lock()
	defer s.mu.Unlock()
	if a := s.lookup(token); a != nil {
		return a.requests
	}
	return 0
}

// Schools lists the schools known to the search portal, as of the current
// epoch.
func (p *Platform) Schools() []SchoolRef {
	e := p.pin()
	defer p.unpin(e)
	out := make([]SchoolRef, len(e.schools))
	copy(out, e.schools)
	return out
}

// LookupSchool finds a school by exact name.
func (p *Platform) LookupSchool(name string) (SchoolRef, error) {
	e := p.pin()
	defer p.unpin(e)
	for _, s := range e.schools {
		if s.Name == name {
			return s, nil
		}
	}
	return SchoolRef{}, ErrNoSchool
}

// capView computes the deterministic per-account slice of a search index:
// the platform shows each searcher an (account-dependent) subset capped at
// SearchPerAccount — which is why the paper used multiple fake accounts to
// widen the seed set. Registered minors are excluded per policy (the gate
// is pre-resolved in the read plane). The permutation hashes the STABLE
// scope string, never the epoch-qualified cache key: an account's view
// ordering is a property of (account, scope), so under a static world every
// epoch serves bit-identical views to the pre-epoch platform.
func (p *Platform) capView(e *epoch, token, scope string, idx []socialgraph.UserID) []socialgraph.UserID {
	h := uint64(17)
	for i := 0; i < len(token); i++ {
		h = h*31 + uint64(token[i])
	}
	for i := 0; i < len(scope); i++ {
		h = h*131 + uint64(scope[i])
	}
	rng := sim.New(p.seed ^ h)
	perm := rng.Perm(len(idx))
	n := p.cfg.SearchPerAccount
	if n > len(idx) {
		n = len(idx)
	}
	excluded := 0
	out := make([]socialgraph.UserID, 0, n)
	for _, k := range perm {
		u := idx[k]
		// Policy: registered minors never appear in search results.
		if !e.read.searchEligible[u] {
			excluded++
			continue
		}
		out = append(out, u)
		if len(out) == n {
			break
		}
	}
	p.lg.Info(context.Background(), "osn.gate", "search view built",
		evlog.Str("token", token), evlog.Str("scope", scope),
		evlog.Int("results", len(out)), evlog.Int("minors_excluded", excluded))
	return out
}

// cachedView returns the account's capped view for a scope, computing and
// caching it in the account's control-plane state on first use (the view
// is deterministic per (token, scope, epoch), so a racing double-compute is
// harmless). cacheKey is the epoch-qualified key; inserting under a new
// epoch drops every older epoch's cached views first, so retired epochs
// are not kept alive through account state. Unknown tokens — impossible
// after a successful charge — fall back to an uncached compute.
func (p *Platform) cachedView(e *epoch, token, scope, cacheKey string, idx []socialgraph.UserID) []socialgraph.UserID {
	s := p.ctl.shardFor(token)
	s.lock()
	a := s.lookup(token)
	if a != nil {
		if v, ok := a.views[cacheKey]; ok {
			s.mu.Unlock()
			return v
		}
	}
	s.mu.Unlock()
	v := p.capView(e, token, scope, idx) // O(index) work outside the lock
	if a != nil {
		s.lock()
		a.evictStale(e.seq)
		if a.views == nil {
			a.views = make(map[string][]socialgraph.UserID)
		}
		a.views[cacheKey] = v
		s.mu.Unlock()
	}
	return v
}

// accountView is the cached capped view over a school's index.
func (p *Platform) accountView(e *epoch, token string, schoolID int) []socialgraph.UserID {
	return p.cachedView(e, token, e.viewScope[schoolID], e.cacheKey[schoolID], e.searchIndex[schoolID])
}

// cachedResults returns the account's rendered search results for a scope:
// the capped view resolved to SearchResults once, cached in the account's
// shard state under the epoch-qualified key. The search endpoints page
// through this slice zero-copy, so steady-state searches allocate nothing.
// Callers must not modify the returned slice.
func (p *Platform) cachedResults(e *epoch, token, scope, cacheKey string, idx []socialgraph.UserID) []SearchResult {
	s := p.ctl.shardFor(token)
	s.lock()
	a := s.lookup(token)
	if a != nil {
		if r, ok := a.pages[cacheKey]; ok {
			s.mu.Unlock()
			return r
		}
	}
	s.mu.Unlock()
	view := p.cachedView(e, token, scope, cacheKey, idx)
	r := make([]SearchResult, len(view))
	for i, u := range view {
		r[i] = SearchResult{ID: p.pub[u], Name: e.read.names[u]}
	}
	if a != nil {
		s.lock()
		a.evictStale(e.seq)
		if a.pages == nil {
			a.pages = make(map[string][]SearchResult)
		}
		a.pages[cacheKey] = r
		s.mu.Unlock()
	}
	return r
}

// SchoolSearch returns one page of the Find-Friends results for the school
// as seen by the account. Scrolling (increasing page) eventually exhausts
// the account's view; more reports whether another page exists.
func (p *Platform) SchoolSearch(token string, schoolID, page int) (results []SearchResult, more bool, err error) {
	results, more, _, err = p.SchoolSearchEpoch(token, schoolID, page)
	return results, more, err
}

// SchoolSearchEpoch is SchoolSearch plus the id of the epoch that served
// the page: the page content and the label come from the same pinned epoch.
func (p *Platform) SchoolSearchEpoch(token string, schoolID, page int) (results []SearchResult, more bool, epochID uint64, err error) {
	e := p.pin()
	defer p.unpin(e)
	results, more, err = p.schoolSearch(e, token, schoolID, page)
	return results, more, e.seq, err
}

func (p *Platform) schoolSearch(e *epoch, token string, schoolID, page int) (results []SearchResult, more bool, err error) {
	if err := p.charge(token); err != nil {
		return nil, false, err
	}
	p.readReq.Inc()
	if schoolID < 0 || schoolID >= len(e.searchIndex) {
		return nil, false, ErrNoSchool
	}
	if page < 0 {
		return nil, false, fmt.Errorf("osn: negative page")
	}
	p.tel.RecordSearch(token)
	view := p.cachedResults(e, token, e.viewScope[schoolID], e.cacheKey[schoolID], e.searchIndex[schoolID])
	start := page * p.cfg.SearchPageSize
	if start >= len(view) {
		return nil, false, nil
	}
	end := start + p.cfg.SearchPageSize
	if end > len(view) {
		end = len(view)
	}
	return view[start:end], end < len(view), nil
}

// Profile renders the stranger view of a public profile. The returned
// profile is the epoch's shared pre-resolved instance: do not modify it.
func (p *Platform) Profile(token string, id PublicID) (*PublicProfile, error) {
	prof, _, err := p.ProfileEpoch(token, id)
	return prof, err
}

// ProfileEpoch is Profile plus the serving epoch's id.
func (p *Platform) ProfileEpoch(token string, id PublicID) (*PublicProfile, uint64, error) {
	e := p.pin()
	defer p.unpin(e)
	prof, err := p.profile(e, token, id)
	return prof, e.seq, err
}

func (p *Platform) profile(e *epoch, token string, id PublicID) (*PublicProfile, error) {
	if err := p.charge(token); err != nil {
		return nil, err
	}
	p.readReq.Inc()
	u, ok := p.byPub[id]
	if !ok {
		p.lg.Debug(context.Background(), "osn.gate", "profile not found", evlog.Str("id", string(id)))
		return nil, ErrNotFound
	}
	p.tel.RecordProfile(token, string(id))
	return e.read.profiles[u], nil
}

// FriendPage returns one page (FriendPageSize entries) of a user's friend
// list, or ErrHidden if the list is not stranger-visible. When the policy's
// HiddenListsInReverseLookup is false (the §8 countermeasure), entries whose
// own friend lists are hidden are omitted — they become undiscoverable by
// reverse lookup. The page is rendered on the fly from the epoch's CSR row
// into a fresh slice; hot loops that need a zero-allocation read path use
// FriendPageInto with a reused buffer, or FriendPageFunc.
func (p *Platform) FriendPage(token string, id PublicID, page int) (friends []FriendRef, more bool, err error) {
	friends, more, _, err = p.FriendPageEpoch(token, id, page)
	return friends, more, err
}

// FriendPageInto is FriendPage appending into buf[:0]. After the first call
// the buffer's capacity covers a full page, so a caller that feeds each
// returned slice back in allocates nothing on the steady-state read path.
func (p *Platform) FriendPageInto(buf []FriendRef, token string, id PublicID, page int) (friends []FriendRef, more bool, err error) {
	friends = buf[:0]
	more, _, err = p.FriendPageFunc(token, id, page, func(f FriendRef) { friends = append(friends, f) })
	if err != nil {
		return nil, false, err
	}
	return friends, more, nil
}

// FriendPageEpoch is FriendPage plus the serving epoch's id. A crawler that
// walks a friend list across pages can detect an epoch boundary by the id
// changing between pages.
func (p *Platform) FriendPageEpoch(token string, id PublicID, page int) (friends []FriendRef, more bool, epochID uint64, err error) {
	more, epochID, err = p.FriendPageFunc(token, id, page, func(f FriendRef) { friends = append(friends, f) })
	if err != nil {
		return nil, false, epochID, err
	}
	return friends, more, epochID, nil
}

// FriendPageFunc is FriendPageEpoch handing each entry of the page to emit,
// in order, while the serving epoch is pinned, instead of collecting them:
// a caller that writes the entries straight into its own buffer (the wire
// encoders) reads a friend page without allocating.
func (p *Platform) FriendPageFunc(token string, id PublicID, page int, emit func(FriendRef)) (more bool, epochID uint64, err error) {
	e := p.pin()
	defer p.unpin(e)
	more, err = p.friendPage(e, token, id, page, emit)
	return more, e.seq, err
}

// friendPage renders one page of u's friend list straight from the frozen
// CSR row — friend lists are a view over the graph plus the epoch's
// visibility bitmap and the immutable pub/name arrays, never materialized.
// That keeps an epoch's footprint at two deltas instead of a
// refs-per-edge array, and makes epoch advance independent of friend-list
// state entirely: patching the CSR row IS the friend-list update.
func (p *Platform) friendPage(e *epoch, token string, id PublicID, page int, emit func(FriendRef)) (more bool, err error) {
	if err := p.charge(token); err != nil {
		return false, err
	}
	p.readReq.Inc()
	if page < 0 {
		return false, fmt.Errorf("osn: negative page")
	}
	u, ok := p.byPub[id]
	if !ok {
		p.lg.Debug(context.Background(), "osn.gate", "friend list not found", evlog.Str("id", string(id)))
		return false, ErrNotFound
	}
	if !e.read.friendVisible[u] {
		p.lg.Debug(context.Background(), "osn.gate", "friend list hidden", evlog.Str("id", string(id)))
		return false, ErrHidden
	}
	p.tel.RecordFriendPage(token, string(id), page)
	row := e.read.frozen.Friends(u)
	start := page * p.cfg.FriendPageSize
	end := start + p.cfg.FriendPageSize
	if e.policy.HiddenListsInReverseLookup {
		// No entry filtering: the page is direct index math over the row.
		if start >= len(row) {
			return false, nil
		}
		if end > len(row) {
			end = len(row)
		}
		for _, f := range row[start:end] {
			emit(FriendRef{ID: p.pub[f], Name: e.read.names[f]})
		}
		return end < len(row), nil
	}
	// §8 countermeasure: skip-scan the row counting only entries whose own
	// lists are visible; stop as soon as one entry past the page proves
	// there is more.
	vis := e.read.friendVisible
	n := 0
	for _, f := range row {
		if !vis[f] {
			continue
		}
		if n >= end {
			return true, nil
		}
		if n >= start {
			emit(FriendRef{ID: p.pub[f], Name: e.read.names[f]})
		}
		n++
	}
	return false, nil
}
