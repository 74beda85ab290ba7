package osnhttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/osn/telemetry"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

// testAPIServer serves a tiny world and returns a JSON-wire client with two
// registered accounts, mirroring testServer for the HTML surface.
func testAPIServer(t testing.TB, cfg osn.Config) (*osn.Platform, *Client) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), cfg)
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(srv.Close)
	c := NewJSONClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(2); err != nil {
		t.Fatal(err)
	}
	return p, c
}

// get performs a raw GET and returns status + body, for handler-level
// assertions below the client's error mapping.
func rawGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestAPIErrorEnvelope drives the API into each error class and checks the
// status and machine-readable code of the envelope.
func TestAPIErrorEnvelope(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	c := NewJSONClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err)
	}
	tok := c.tokens[0] // already query-escaped

	cases := []struct {
		path string
		code int
		wire string
	}{
		{"/api/v1/search?school=0&acct=bogus", http.StatusUnauthorized, "unauthorized"},
		{"/api/v1/profile/no-such-id?acct=" + tok, http.StatusNotFound, "not_found"},
		{"/api/v1/search?school=xyz&acct=" + tok, http.StatusBadRequest, "bad_request"},
		{"/api/v1/search?school=0&page=-1&acct=" + tok, http.StatusBadRequest, "bad_request"},
		{"/api/v1/friends/u0?page=zz&acct=" + tok, http.StatusBadRequest, "bad_request"},
		{"/api/v1/nothing-here", http.StatusNotFound, "not_found"},
		{"/api/v1/register", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		code, body := rawGet(t, srv, tc.path)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (body %s)", tc.path, code, tc.code, body)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Errorf("%s: non-JSON error body %q: %v", tc.path, body, err)
			continue
		}
		if env.Error.Code != tc.wire {
			t.Errorf("%s: wire code %q, want %q", tc.path, env.Error.Code, tc.wire)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.path)
		}
	}
}

// TestAPIThrottleRetryAfter checks 503 envelopes carry Retry-After, which
// the crawler's backoff honors.
func TestAPIThrottleRetryAfter(t *testing.T) {
	p, c := testAPIServer(t, osn.Config{ThrottleLimit: 1})
	_ = p
	// Request 1 passes, request 2 throttles.
	if _, _, err := c.Search(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.Search(0, 0, 0)
	if !errors.Is(err, osn.ErrThrottled) {
		t.Fatalf("want ErrThrottled, got %v", err)
	}
}

// TestAPISchoolsAndSearchShape checks the list containers carry the "n"
// cross-check and the more flag.
func TestAPISchoolsAndSearchShape(t *testing.T) {
	p, c := testAPIServer(t, osn.Config{SearchPerAccount: 50, SearchPageSize: 5})
	ref, err := c.LookupSchool(p.Schools()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if ref != p.Schools()[0] {
		t.Fatalf("school mismatch: %+v vs %+v", ref, p.Schools()[0])
	}
	res, more, err := c.Search(0, ref.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no search results")
	}
	if len(res) == 5 && !more {
		// a full first page of a 50-cap search must have more
		t.Error("full page reports more=false")
	}
	for _, r := range res {
		if r.ID == "" || r.Name == "" {
			t.Fatalf("incomplete row %+v", r)
		}
	}
}

// nullWriter is a ResponseWriter that discards the body; its header map is
// allocated once so steady-state handler measurements see only handler
// allocations.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// steadyRequests builds the steady-state request set against real IDs on
// both wires: one school-search page, one profile and one friend page
// each, plus the health probe on the JSON list.
func steadyRequests(t testing.TB, p *osn.Platform) (s *Server, api, html []*http.Request) {
	t.Helper()
	tok, err := p.RegisterAccount("alloc-probe", mustDate(1985, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := p.SchoolSearch(tok, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no search results to probe with")
	}
	// Find a target with a visible friend list so the friends request
	// exercises the 200 path.
	target := res[0].ID
	for _, r := range res {
		if pp, err := p.Profile(tok, r.ID); err == nil && pp.FriendListVisible {
			target = r.ID
			break
		}
	}
	esc := url.QueryEscape(tok)
	api = []*http.Request{
		httptest.NewRequest("GET", "/api/v1/search?school=0&page=0&acct="+esc, nil),
		httptest.NewRequest("GET", "/api/v1/profile/"+string(res[0].ID)+"?acct="+esc, nil),
		httptest.NewRequest("GET", "/api/v1/friends/"+string(target)+"?page=0&acct="+esc, nil),
		httptest.NewRequest("GET", "/healthz", nil),
	}
	html = []*http.Request{
		httptest.NewRequest("GET", "/find-friends?school=0&page=0&acct="+esc, nil),
		httptest.NewRequest("GET", "/profile/"+string(res[0].ID)+"?acct="+esc, nil),
		httptest.NewRequest("GET", "/friends/"+string(target)+"?page=0&acct="+esc, nil),
	}
	return NewServer(p), api, html
}

// TestAPIZeroAlloc is the serving-plane allocation guard: with metrics and
// logging off, the steady-state read handlers of both wires (search page,
// profile, friend page, and the health probe) must not allocate at all.
// Routing, query parsing, page writing and the platform read plane all
// ride pooled or interned memory; a regression here is a performance bug
// by definition.
func TestAPIZeroAlloc(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	// Telemetry accumulators on: the watchtower's record path (shard lock,
	// window rotation, Bloom inserts, interarrival moments) must hold the
	// same zero-allocation bar as the handlers it instruments. The warmup
	// pass absorbs the one-time per-account state allocation.
	p.WithTelemetry(telemetry.NewTable(time.Hour))
	s, api, html := steadyRequests(t, p)
	reqs := append(api, html...)
	// WithLimits on: the limiter path must stay allocation-free too.
	s.WithLimits(64, 64, 64)
	wr := &nullWriter{h: make(http.Header)}
	// Warm: first calls populate the per-(token,scope) search cursor cache
	// and the encoder pool.
	for _, r := range reqs {
		s.ServeHTTP(wr, r)
	}
	for _, r := range reqs {
		r := r
		allocs := testing.AllocsPerRun(100, func() { s.ServeHTTP(wr, r) })
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", r.URL.Path, allocs)
		}
	}
}

// TestSearchAllocsSameOnBothWires: city and graph search allocate in the
// platform read (the city view's cache key, the graph-search match list),
// so they are outside the zero bar; the wire must add nothing to it. The
// HTML and JSON handlers share the router, parser and platform call, so
// they must allocate exactly as often.
func TestSearchAllocsSameOnBothWires(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{SearchPageSize: 5})
	s := NewServer(p)
	tok, err := p.RegisterAccount("alloc-probe", mustDate(1985, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	acct := "&acct=" + url.QueryEscape(tok)
	city := url.QueryEscape(w.Schools[0].City)
	pairs := [][2]string{
		{"/city-search?city=" + city + "&page=1" + acct, "/api/v1/search?city=" + city + "&page=1" + acct},
		{"/graph-search?school=0&current=1&page=1" + acct, "/api/v1/search?graph=1&school=0&current=1&page=1" + acct},
	}
	wr := &nullWriter{h: make(http.Header)}
	for _, pair := range pairs {
		var allocs [2]float64
		for i, path := range pair {
			r := httptest.NewRequest("GET", path, nil)
			s.ServeHTTP(wr, r)
			allocs[i] = testing.AllocsPerRun(100, func() { s.ServeHTTP(wr, r) })
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocs/op, %s: %v", pair[0], allocs[0], pair[1], allocs[1])
		}
		t.Logf("%s: %v allocs/op on both wires", pair[0], allocs[0])
	}
}

// BenchmarkJSONAPIServe measures the uninstrumented JSON serving path over
// the steady-state mix.
func BenchmarkJSONAPIServe(b *testing.B) {
	benchmarkServe(b, func(api, _ []*http.Request) []*http.Request { return api })
}

// BenchmarkHTMLServe is BenchmarkJSONAPIServe over the HTML pages.
func BenchmarkHTMLServe(b *testing.B) {
	benchmarkServe(b, func(_, html []*http.Request) []*http.Request { return html })
}

func benchmarkServe(b *testing.B, pick func(api, html []*http.Request) []*http.Request) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		b.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	s, api, html := steadyRequests(b, p)
	reqs := pick(api, html)
	wr := &nullWriter{h: make(http.Header)}
	for _, r := range reqs {
		s.ServeHTTP(wr, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(wr, reqs[i%len(reqs)])
	}
}

func mustDate(y, m, d int) sim.Date {
	return sim.Date{Year: y, Month: m, Day: d}
}

// TestAPIEpochLabel: every /api/v1 response and /healthz carry the id of
// the epoch that served them, and the label follows AdvanceEpoch — the wire
// half of the snapshot-rotation contract.
func TestAPIEpochLabel(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(srv.Close)
	tok, err := p.RegisterAccount("epoch-probe", mustDate(1985, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	esc := url.QueryEscape(tok)
	res, _, err := p.SchoolSearch(tok, 0, 0)
	if err != nil || len(res) == 0 {
		t.Fatalf("seed search: %d results, err=%v", len(res), err)
	}
	paths := []string{
		"/api/v1/schools",
		"/api/v1/search?school=0&page=0&acct=" + esc,
		"/api/v1/profile/" + string(res[0].ID) + "?acct=" + esc,
		"/healthz",
	}
	check := func(epoch string) {
		t.Helper()
		for _, path := range paths {
			code, body := rawGet(t, srv, path)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d", path, code)
			}
			if !strings.Contains(body, `"epoch":`+epoch) {
				t.Fatalf("%s: body missing \"epoch\":%s: %s", path, epoch, body)
			}
		}
	}
	check("0")
	if _, err := worldgen.Evolve(w, worldgen.DefaultEvolveConfig(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if st := p.AdvanceEpoch(context.Background()); st.Seq != 1 {
		t.Fatalf("advance returned seq %d", st.Seq)
	}
	check("1")
}
