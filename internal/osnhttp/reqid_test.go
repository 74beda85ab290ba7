package osnhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func TestRequestIDPure(t *testing.T) {
	a := requestID(1, "/profile/u1?acct=t")
	if a == "" {
		t.Fatal("empty id")
	}
	if b := requestID(1, "/profile/u1?acct=t"); b != a {
		t.Fatalf("same inputs, different ids: %s vs %s", a, b)
	}
	if b := requestID(2, "/profile/u1?acct=t"); b == a {
		t.Fatal("seed not mixed into the id")
	}
	if b := requestID(1, "/profile/u2?acct=t"); b == a {
		t.Fatal("path not mixed into the id")
	}
}

// idRecorder wraps a handler and keeps every request-id header it sees, in
// arrival order.
type idRecorder struct {
	next http.Handler
	mu   sync.Mutex
	ids  []string
}

func (rec *idRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec.mu.Lock()
	rec.ids = append(rec.ids, r.Header.Get(RequestIDHeader))
	rec.mu.Unlock()
	rec.next.ServeHTTP(w, r)
}

// crawlIDs runs a fixed small crawl against a fresh world and returns the
// id sequence the server observed. Each call rebuilds everything from the
// same seeds, so two calls are two "runs" of the same study.
func crawlIDs(t *testing.T, clientSeed uint64) []string {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	rec := &idRecorder{next: NewServer(p)}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client(), nil).WithSeed(clientSeed)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err)
	}
	ref, err := c.LookupSchool(p.Schools()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Search(0, ref.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res[:3] {
		if _, err := c.Profile(0, r.ID); err != nil && !errors.Is(err, osn.ErrNotFound) {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]string(nil), rec.ids...)
}

// TestRequestIDsReproducibleAcrossRuns is the determinism contract: two
// identical runs (same world seed, same client seed, same request sequence)
// mint identical id sequences, so a wire log from run N can be diffed
// against run N+1.
func TestRequestIDsReproducibleAcrossRuns(t *testing.T) {
	first := crawlIDs(t, 7)
	second := crawlIDs(t, 7)
	if len(first) != len(second) {
		t.Fatalf("run lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("id %d differs across identical runs: %s vs %s", i, first[i], second[i])
		}
	}
	// A different seed must shift every stamped id (registration POSTs are
	// unstamped and stay empty).
	third := crawlIDs(t, 8)
	for i := range first {
		if first[i] != "" && first[i] == third[i] {
			t.Fatalf("id %d identical under a different seed: %s", i, first[i])
		}
	}
}

// TestRetryKeepsRequestID: a retried attempt is the same logical request,
// so it carries the same id — the server-side log shows one id appearing
// twice rather than a new id per attempt.
func TestRetryKeepsRequestID(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	inner := NewServer(p)
	rec := &idRecorder{}
	// 503 the first attempt at each profile path, as a throttling proxy
	// would; the crawler's retry then re-fetches the same path. The ids of
	// both attempts are recorded.
	seen := map[string]bool{}
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/profile/") {
			mu.Lock()
			first := !seen[r.URL.RequestURI()]
			seen[r.URL.RequestURI()] = true
			mu.Unlock()
			rec.mu.Lock()
			rec.ids = append(rec.ids, r.Header.Get(RequestIDHeader))
			rec.mu.Unlock()
			if first {
				rw.WriteHeader(http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err)
	}
	ref, err := c.LookupSchool(p.Schools()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.Search(0, ref.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := res[0].ID
	if _, err := c.Profile(0, target); !errors.Is(err, osn.ErrThrottled) {
		t.Fatalf("first attempt: %v, want ErrThrottled", err)
	}
	if _, err := c.Profile(0, target); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	rec.mu.Lock()
	ids := append([]string(nil), rec.ids...)
	rec.mu.Unlock()
	if len(ids) != 2 {
		t.Fatalf("server saw %d profile attempts, want 2", len(ids))
	}
	if ids[0] == "" || ids[0] != ids[1] {
		t.Fatalf("retry minted a new id: %q then %q", ids[0], ids[1])
	}
}

// TestErrorEnvelopeEchoesRequestID: a stamped /api/v1 request that fails
// gets its id back in the JSON error envelope, so a client-side error
// report alone is enough to find the server-side access event.
func TestErrorEnvelopeEchoesRequestID(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/profile/none?acct=bogus", nil)
	req.Header.Set(RequestIDHeader, "deadbeef42")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.RequestID != "deadbeef42" {
		t.Fatalf("envelope request_id %q, want deadbeef42 (code %q)", env.RequestID, env.Error.Code)
	}

	// Unstamped callers (curl) get no request_id key at all.
	resp2, err := srv.Client().Get(srv.URL + "/api/v1/profile/none?acct=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "request_id") {
		t.Fatalf("unstamped request grew a request_id: %s", buf.String())
	}
}

// syncLog is a concurrency-safe sink for evlog during tests.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *syncLog) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *syncLog) lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Split(strings.TrimSpace(s.buf.String()), "\n")
}

// TestWireJoinRate is the acceptance gate for the correlation layer: on a
// fault-free run where both sides log to the same place, at least 95% of
// client wire events must join to a server access event by id (in practice
// 100%; the bound leaves room for, e.g., an access line lost to a crash).
func TestWireJoinRate(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	sink := &syncLog{}
	lg := evlog.New(evlog.Options{Sink: sink})
	srv := httptest.NewServer(NewServer(p).WithLog(lg))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client(), nil).WithSeed(3).WithLog(lg)
	if err := c.RegisterAccounts(2); err != nil {
		t.Fatal(err)
	}

	// A miniature full crawl: seed search to exhaustion, then profiles and
	// first friend pages for every result.
	ref, err := c.LookupSchool(p.Schools()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	var ids []osn.PublicID
	for page := 0; ; page++ {
		res, more, err := c.Search(0, ref.ID, page)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			ids = append(ids, r.ID)
		}
		if !more {
			break
		}
	}
	for _, id := range ids {
		pp, err := c.Profile(1, id)
		if err != nil {
			continue // hidden profiles are part of a normal run
		}
		if pp.FriendListVisible {
			if _, _, err := c.FriendPage(1, id, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	client := map[string]bool{}
	server := map[string]bool{}
	wireEvents := 0
	for _, line := range sink.lines() {
		var e struct {
			Cat   string `json:"cat"`
			Msg   string `json:"msg"`
			ID    string `json:"id"`
			ReqID string `json:"req_id"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		switch {
		case e.Cat == "wire" && e.Msg == "request":
			wireEvents++
			client[e.ID] = true
		case e.Cat == "http" && e.Msg == "request" && e.ReqID != "":
			server[e.ReqID] = true
		}
	}
	if wireEvents < 20 {
		t.Fatalf("crawl too small to be meaningful: %d wire events", wireEvents)
	}
	joined := 0
	for id := range client {
		if server[id] {
			joined++
		}
	}
	rate := float64(joined) / float64(len(client))
	if rate < 0.95 {
		t.Fatalf("join rate %.2f (%d/%d), want >= 0.95", rate, joined, len(client))
	}
}

// TestFetchPathsAndIDs pins every fetch method's request path and id on
// both wires to the fmt.Sprintf formats the client used before it built
// paths with strconv, for values that need escaping.
func TestFetchPathsAndIDs(t *testing.T) {
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.URL.RequestURI()+" "+r.Header.Get(RequestIDHeader))
		mu.Unlock()
		http.NotFound(w, r)
	}))
	defer srv.Close()
	const tok = "acct-7-a&b+c d/é"
	const city = "Ash & Oak+Vale d'Or"
	const id = osn.PublicID("u1/2?x y")
	for _, w := range []*wire{&htmlWire, &jsonWire} {
		got = nil
		c := newClient(srv.URL+"/", srv.Client(), nil, w).WithSeed(42)
		c.tokens = []string{url.QueryEscape(tok)}
		c.LookupSchool("x")
		c.Search(0, 12, 3)
		c.CitySearch(0, city, 0)
		c.GraphSearch(0, osn.GraphQuery{SchoolID: 4, CurrentStudents: true, GradYearAfter: -2010, GradYearBefore: 2015, City: city}, 1)
		c.GraphSearch(0, osn.GraphQuery{SchoolID: 5}, 0)
		c.Profile(0, id)
		c.FriendPage(0, id, 2)
		q := url.QueryEscape
		want := []string{
			w.prefix + "/schools",
			fmt.Sprintf("%s%sschool=%d&page=%d&acct=%s", w.prefix, w.find, 12, 3, q(tok)),
			fmt.Sprintf("%s%scity=%s&page=%d&acct=%s", w.prefix, w.city, q(city), 0, q(tok)),
			fmt.Sprintf("%s%sschool=%d&current=%s&after=%d&before=%d&city=%s&page=%d&acct=%s",
				w.prefix, w.graph, 4, "1", -2010, 2015, q(city), 1, q(tok)),
			fmt.Sprintf("%s%sschool=%d&current=%s&after=%d&before=%d&city=%s&page=%d&acct=%s",
				w.prefix, w.graph, 5, "0", 0, 0, q(""), 0, q(tok)),
			fmt.Sprintf("%s/profile/%s?acct=%s", w.prefix, url.PathEscape(string(id)), q(tok)),
			fmt.Sprintf("%s/friends/%s?page=%d&acct=%s", w.prefix, url.PathEscape(string(id)), 2, q(tok)),
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d requests, want %d: %q", w.prefix, len(got), len(want), got)
		}
		for i, path := range want {
			if line := path + " " + requestID(42, path); got[i] != line {
				t.Errorf("%q request %d: %q, want %q", w.prefix, i, got[i], line)
			}
		}
	}
}
