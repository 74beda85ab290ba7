// Package osnhttp puts the simulated OSN behind a real HTTP interface and
// provides the client-side page parsers.
//
// The paper's measurement effort (Table 3) is denominated in HTTP GETs
// against HTML endpoints: seed searches (with AJAX scrolling), public
// profile pages, and paginated friend lists. This package serves those
// pages as HTML with stable microformat-style class markers, and the same
// read plane as versioned JSON under /api/v1. One router, one request
// parser and one append encoder serve both wires; only the page writers
// differ (html.go, api.go). Client fetches either wire's pages and decodes
// them back into the osn view types (parse.go, jsonwire.go), so the attack
// can run over a network boundary exactly as the original crawlers did.
package osnhttp

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osn/telemetry"
	"hsprofiler/internal/sim"
)

// Server wraps a Platform as an http.Handler. Handlers run on whatever
// goroutine net/http dispatches them to: the platform serves every page
// from its frozen read plane (profiles and search pages are pre-resolved,
// friend pages stream from the CSR row), and the writers append them into
// a pooled encoder buffer, so the server needs no locking of its own and a
// steady-state read allocates nothing on either wire.
//
// Both wires sit behind the same router, inflight accounting (graceful
// drain) and optional per-endpoint-family concurrency limiters
// (WithLimits).
type Server struct {
	platform *osn.Platform
	metrics  *serverMetrics
	lg       *evlog.Logger
	tel      *telemetry.Table
	inflight atomic.Int64
	// limits caps concurrent handlers per endpoint family with buffered
	// channels used as counting semaphores. A nil channel means unlimited.
	// Saturation sheds the request with a 503 overload envelope rather
	// than queueing: under overload the platform prefers fast rejection
	// (which clients treat as transient, like a throttle) to unbounded
	// latency.
	limits [numFamilies]chan struct{}
}

// releaseSlot is a named function (not a closure) so the deferred call in
// serve stays on the stack.
func releaseSlot(lim chan struct{}) { <-lim }

// NewServer returns a handler serving the platform.
func NewServer(p *osn.Platform) *Server {
	return &Server{platform: p}
}

// WithLog attaches an event logger: every served request emits one "http"
// access-log event with its endpoint, status and latency. A nil logger
// leaves the server silent. Returns the server for chaining.
func (s *Server) WithLog(lg *evlog.Logger) *Server {
	s.lg = lg
	return s
}

// WithLimits caps concurrent in-handler requests per endpoint family;
// 0 (or negative) leaves that family unlimited. Requests beyond the cap
// are shed immediately with a 503 overload envelope and a Retry-After
// header. Returns the server for chaining. Not safe to call once serving.
func (s *Server) WithLimits(search, profile, friends int) *Server {
	mk := func(n int) chan struct{} {
		if n <= 0 {
			return nil
		}
		return make(chan struct{}, n)
	}
	s.limits[famSearch], s.limits[famProfile], s.limits[famFriends] = mk(search), mk(profile), mk(friends)
	return s
}

// Inflight reports the number of requests currently inside ServeHTTP —
// the count a graceful drain waits on.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

var recPool = sync.Pool{New: func() any { return &statusRecorder{} }}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	t := route(r.URL.Path)
	if s.metrics == nil && !s.lg.On(evlog.Info) {
		s.serve(w, r, t)
		return
	}
	if s.metrics != nil {
		s.metrics.inflight.Inc()
		defer s.metrics.inflight.Dec()
	}
	rec := recPool.Get().(*statusRecorder)
	rec.ResponseWriter, rec.code = w, http.StatusOK
	start := time.Now()
	s.serve(rec, r, t)
	elapsed := time.Since(start)
	fam := t.family()
	s.metrics.observe(fam, rec.code, elapsed)
	// req_id echoes the client's correlation header (empty for unstamped
	// callers like curl) so runreport can join this access event to the
	// attacker-side wire event for the same logical request.
	s.lg.Info(r.Context(), "http", "request",
		evlog.Str("endpoint", fam.String()),
		evlog.Str("method", r.Method),
		evlog.Str("path", r.URL.RequestURI()),
		evlog.Str("req_id", r.Header.Get(RequestIDHeader)),
		evlog.Int("code", rec.code),
		evlog.I64("epoch", int64(s.platform.EpochSeq())),
		evlog.Dur("ms", elapsed))
	rec.ResponseWriter = nil
	recPool.Put(rec)
}

// serve applies the endpoint family's concurrency limit, then dispatches.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, t target) {
	if lim := s.limits[t.family()]; lim != nil {
		select {
		case lim <- struct{}{}:
		default:
			s.metrics.shedded()
			apiError(w, r, http.StatusServiceUnavailable, "overload", "server overloaded, retry shortly")
			return
		}
		defer releaseSlot(lim)
	}
	if t.api {
		s.dispatchAPI(w, r, t)
	} else {
		s.dispatchHTML(w, r, t)
	}
}

// Pre-allocated header values: assigning a shared slice into the header
// map avoids the per-request []string allocation http.Header.Set makes.
var (
	ctText       = []string{"text/plain; charset=utf-8"}
	nosniff      = []string{"nosniff"}
	retryAfter1  = []string{"1"}
	allowGetHead = []string{"GET, HEAD"}
	allowPost    = []string{"POST"}
)

// dispatchHTML serves the HTML wire. Read pages answer GET and HEAD,
// registration answers POST, the health probe answers any method; an
// unknown path is a 404 whatever the method, and a profile or friend-list
// id is exactly one non-empty path segment.
func (s *Server) dispatchHTML(w http.ResponseWriter, r *http.Request, t target) {
	switch ep := t.ep; {
	case ep == epHealthz && !t.sub:
		s.healthz(w)
	case ep == epRegister && !t.sub:
		if r.Method != http.MethodPost {
			methodNotAllowed(w, allowPost)
			return
		}
		s.register(w, r, t)
	case (ep == epSchools || ep == epFindFriends || ep == epCitySearch || ep == epGraphSearch) && !t.sub,
		(ep == epProfile || ep == epFriends) && t.rest != "" && oneSegment(r.URL):
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			methodNotAllowed(w, allowGetHead)
			return
		}
		s.page(w, r, t)
	default:
		textError(w, http.StatusNotFound, "404 page not found")
	}
}

func methodNotAllowed(w http.ResponseWriter, allow []string) {
	w.Header()["Allow"] = allow
	textError(w, http.StatusMethodNotAllowed, "Method Not Allowed")
}

// dispatchAPI serves /api/v1/. Everything but registration is GET-only,
// and the method is checked before the path.
func (s *Server) dispatchAPI(w http.ResponseWriter, r *http.Request, t target) {
	if t.ep == epRegister && !t.sub {
		if r.Method != http.MethodPost {
			apiError(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "register is POST-only")
			return
		}
		s.register(w, r, t)
		return
	}
	if r.Method != http.MethodGet {
		apiError(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "API endpoints are GET-only")
		return
	}
	switch ep := t.ep; {
	case (ep == epSchools || ep == epSearch) && !t.sub,
		(ep == epProfile || ep == epFriends) && t.sub:
		s.page(w, r, t)
	case ep == epAdmin && t.sub:
		s.serveAdmin(w, r, t.rest)
	default:
		apiError(w, r, http.StatusNotFound, "not_found", "unknown API route")
	}
}

// page serves a read endpoint on either wire: parse, read the platform,
// write the wire's page.
func (s *Server) page(w http.ResponseWriter, r *http.Request, t target) {
	if t.ep == epSchools {
		s.schools(w, t)
		return
	}
	q, bad := parseQuery(r.URL.RawQuery, t.ep)
	if bad != "" {
		badRequest(w, r, t, bad)
		return
	}
	switch t.ep {
	case epProfile:
		s.profile(w, r, t, &q)
	case epFriends:
		s.friends(w, r, t, &q)
	default:
		s.search(w, r, t, &q)
	}
}

func (s *Server) schools(w http.ResponseWriter, t target) {
	schools := s.platform.Schools()
	e := getEnc()
	if t.api {
		e.jsonSchools(schools, s.platform.EpochSeq())
		e.flush(w, ctJSON)
	} else {
		e.htmlSchools(schools)
		e.flush(w, ctHTML)
	}
	putEnc(e)
}

func (s *Server) search(w http.ResponseWriter, r *http.Request, t target, q *query) {
	var (
		results []osn.SearchResult
		more    bool
		epoch   uint64
		err     error
	)
	switch q.kind {
	case searchSchool:
		results, more, epoch, err = s.platform.SchoolSearchEpoch(q.acct, q.school, q.page)
	case searchCity:
		results, more, epoch, err = s.platform.CitySearchEpoch(q.acct, q.city, q.page)
	case searchGraph:
		results, more, epoch, err = s.platform.GraphSearchEpoch(q.acct, osn.GraphQuery{
			SchoolID:        q.school,
			CurrentStudents: q.current,
			GradYearAfter:   q.after,
			GradYearBefore:  q.before,
			City:            q.city,
		}, q.page)
	}
	if err != nil {
		fail(w, r, t, err)
		return
	}
	e := getEnc()
	if t.api {
		e.b = appendListHead(e.b, len(results), "results")
		for i, row := range results {
			e.sep(i)
			e.jsonRow(row.ID, row.Name)
		}
		e.jsonListTail(more, epoch)
		e.flush(w, ctJSON)
	} else {
		e.htmlResults(results, more, q)
		e.flush(w, ctHTML)
	}
	putEnc(e)
}

func (s *Server) profile(w http.ResponseWriter, r *http.Request, t target, q *query) {
	pp, epoch, err := s.platform.ProfileEpoch(q.acct, osn.PublicID(t.rest))
	if err != nil {
		fail(w, r, t, err)
		return
	}
	e := getEnc()
	if t.api {
		e.jsonProfile(pp, epoch)
		e.flush(w, ctJSON)
	} else {
		e.htmlProfile(pp)
		e.flush(w, ctHTML)
	}
	putEnc(e)
}

// friends streams a friend page from the platform's CSR row straight into
// the encoder buffer while the serving epoch is pinned: no intermediate
// slice, and no buffer besides the encoder's.
func (s *Server) friends(w http.ResponseWriter, r *http.Request, t target, q *query) {
	id := osn.PublicID(t.rest)
	e := getEnc()
	var (
		n     int
		more  bool
		epoch uint64
		err   error
	)
	if t.api {
		more, epoch, err = s.platform.FriendPageFunc(q.acct, id, q.page, func(f osn.FriendRef) {
			e.sep(n)
			e.jsonRow(f.ID, f.Name)
			n++
		})
	} else {
		e.htmlFriendsHead()
		more, _, err = s.platform.FriendPageFunc(q.acct, id, q.page, e.htmlFriend)
	}
	if err != nil {
		putEnc(e)
		fail(w, r, t, err)
		return
	}
	if t.api {
		var head [48]byte
		e.prepend(appendListHead(head[:0], n, "friends"))
		e.jsonListTail(more, epoch)
		e.flush(w, ctJSON)
	} else {
		e.htmlFriendsTail(t.rest, more, q)
		e.flush(w, ctHTML)
	}
	putEnc(e)
}

// register creates an account from a form post (name, birth) on either
// wire: the HTML wire answers the bare token, /api/v1 a JSON object.
func (s *Server) register(w http.ResponseWriter, r *http.Request, t target) {
	if err := r.ParseForm(); err != nil {
		badRequest(w, r, t, err.Error())
		return
	}
	var birth sim.Date
	if _, err := fmt.Sscanf(r.PostFormValue("birth"), "%d-%d-%d", &birth.Year, &birth.Month, &birth.Day); err != nil {
		badRequest(w, r, t, "birth must be YYYY-MM-DD")
		return
	}
	token, err := s.platform.RegisterAccount(r.PostFormValue("name"), birth)
	if err != nil {
		fail(w, r, t, err)
		return
	}
	if !t.api {
		io.WriteString(w, token)
		return
	}
	e := getEnc()
	e.raw(`{"token":`)
	e.str(token)
	e.raw(`}`)
	e.flush(w, ctJSON)
	putEnc(e)
}

// healthz serves the load-balancer probe on the main listener: a
// deployment should not need -metrics-addr to know the process is alive.
// The epoch id makes the probe double as the rotation watchdog — a healthy
// -evolve deployment shows it increasing.
func (s *Server) healthz(w http.ResponseWriter) {
	e := getEnc()
	e.raw(`{"status":"ok","inflight":`)
	e.int(int(s.inflight.Load()))
	e.raw(`,"epoch":`)
	e.epoch(s.platform.EpochSeq())
	e.raw(`}`)
	e.flush(w, ctJSON)
	putEnc(e)
}

// httpStatus maps platform errors onto wire status codes.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, osn.ErrUnauthorized):
		return http.StatusUnauthorized
	case errors.Is(err, osn.ErrSuspended):
		return http.StatusTooManyRequests
	case errors.Is(err, osn.ErrThrottled):
		return http.StatusServiceUnavailable // transient; Retry-After applies
	case errors.Is(err, osn.ErrUnderage):
		return http.StatusForbidden
	case errors.Is(err, osn.ErrNotFound), errors.Is(err, osn.ErrNoSchool):
		return http.StatusNotFound
	case errors.Is(err, osn.ErrHidden):
		return http.StatusGone // page exists, content withheld from strangers
	default:
		return http.StatusInternalServerError
	}
}

// fail answers a platform error on the request's wire.
func fail(w http.ResponseWriter, r *http.Request, t target, err error) {
	if t.api {
		code, codeStr := apiCode(err)
		apiError(w, r, code, codeStr, err.Error())
		return
	}
	textError(w, httpStatus(err), err.Error())
}

// badRequest answers a 400 on the request's wire.
func badRequest(w http.ResponseWriter, r *http.Request, t target, msg string) {
	if t.api {
		apiError(w, r, http.StatusBadRequest, "bad_request", msg)
		return
	}
	textError(w, http.StatusBadRequest, msg)
}

// textError answers on the HTML wire as http.Error does — a text/plain
// body of msg and a newline — plus Retry-After on a 503.
func textError(w http.ResponseWriter, code int, msg string) {
	h := w.Header()
	h["Content-Type"] = ctText
	h["X-Content-Type-Options"] = nosniff
	if code == http.StatusServiceUnavailable {
		h["Retry-After"] = retryAfter1
	}
	w.WriteHeader(code)
	e := getEnc()
	e.raw(msg)
	e.b = append(e.b, '\n')
	w.Write(e.b)
	putEnc(e)
}
