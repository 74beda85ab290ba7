package osnhttp

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// bodyTap records every GET the wrapped handler answers: request URI,
// status, Content-Type and body bytes.
type bodyTap struct {
	inner http.Handler
	mu    sync.Mutex
	rows  []servedBody
}

type servedBody struct {
	uri, contentType string
	code             int
	body             []byte
}

type tapWriter struct {
	http.ResponseWriter
	code int
	body []byte
}

func (w *tapWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return w.ResponseWriter.Write(b)
}

func (t *bodyTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &tapWriter{ResponseWriter: w}
	t.inner.ServeHTTP(tw, r)
	if r.Method != http.MethodGet {
		return
	}
	t.mu.Lock()
	t.rows = append(t.rows, servedBody{
		uri: r.URL.RequestURI(), contentType: tw.Header().Get("Content-Type"),
		code: tw.code, body: tw.body,
	})
	t.mu.Unlock()
}

// digest hashes the served bodies in request-URI order, so the arrival
// interleaving of parallel crawl workers does not move it. Which account
// fetches a profile or friend page depends on that interleaving too, so
// every account token is masked in URIs and bodies first.
func (t *bodyTap) digest(tokens []string) string {
	pairs := make([]string, 0, 2*len(tokens))
	for _, tok := range tokens {
		pairs = append(pairs, tok, "ACCT")
	}
	mask := strings.NewReplacer(pairs...)
	rows := make([]servedBody, len(t.rows))
	for i, r := range t.rows {
		r.uri, r.body = mask.Replace(r.uri), []byte(mask.Replace(string(r.body)))
		rows[i] = r
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].uri != rows[j].uri {
			return rows[i].uri < rows[j].uri
		}
		return string(rows[i].body) < string(rows[j].body)
	})
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s\n%d %s %d\n", r.uri, r.code, r.contentType, len(r.body))
		h.Write(r.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// counts tallies the served GETs by page family.
func (t *bodyTap) counts() map[string]int {
	n := make(map[string]int)
	for _, r := range t.rows {
		fam, _, _ := strings.Cut(strings.TrimPrefix(r.uri, "/"), "/")
		fam, _, _ = strings.Cut(fam, "?")
		n[fam]++
	}
	return n
}

// hs1AttackDigest pins every HTML body served to an HS1 enhanced attack at
// seed 2013 (two crawl workers): statuses, Content-Types and bytes.
const hs1AttackDigest = "7100605a29e12d6883bf491f8eccaed0aa1ff0cc5a1f763df40032cea3d53b82"

// TestHTMLAttackDigest runs the paper's HS1 enhanced attack over the HTML
// wire and requires the served pages to hash to the pinned digest. It is
// the byte-level contract of the HTML renderer on the traffic the paper
// measures: 1 schools, 14 search, 1845 profile and 682 friend-list GETs.
func TestHTMLAttackDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full HS1 attack; skipped with -short")
	}
	cfg := worldgen.HS1Config()
	w, err := worldgen.Generate(cfg, 2013)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{SearchPerAccount: 250})
	tap := &bodyTap{inner: NewServer(p)}
	srv := httptest.NewServer(tap)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(2); err != nil {
		t.Fatal(err)
	}
	_, err = core.RunContext(context.Background(), crawler.NewSession(c), core.Params{
		SchoolName:   w.Schools[0].Name,
		CurrentYear:  cfg.SeniorClassYear,
		Mode:         core.Enhanced,
		MaxThreshold: 500,
		Workers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"schools": 1, "find-friends": 14, "profile": 1845, "friends": 682}
	got := tap.counts()
	for fam, n := range want {
		if got[fam] != n {
			t.Errorf("%s GETs: %d, want %d", fam, got[fam], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("served page families %v, want %v", got, want)
	}
	if d := tap.digest(c.tokens); d != hs1AttackDigest {
		t.Errorf("HS1 attack body digest %s, want %s", d, hs1AttackDigest)
	}
}

// TestRouteStatusTable pins the status every route answers under GET, HEAD
// and POST on both wires, plus the malformed paths and ids a router must
// reject the same way.
func TestRouteStatusTable(t *testing.T) {
	p, tok, open := statusWorld(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	acct := "acct=" + url.QueryEscape(tok)
	city := url.QueryEscape(p.Schools()[0].City)

	const (
		get, head, post = http.MethodGet, http.MethodHead, http.MethodPost
	)
	type row struct {
		path            string
		get, head, post int
	}
	rows := []row{
		// HTML wire.
		{"/register", 405, 405, 400},
		{"/schools", 200, 200, 405},
		{"/find-friends?school=0&" + acct, 200, 200, 405},
		{"/city-search?city=" + city + "&" + acct, 200, 200, 405},
		{"/graph-search?school=0&current=1&" + acct, 200, 200, 405},
		{"/profile/" + open + "?" + acct, 200, 200, 405},
		{"/friends/" + open + "?" + acct, 200, 200, 405},
		{"/healthz", 200, 200, 200},
		{"/nothing-here", 404, 404, 404},
		{"/profile/?" + acct, 404, 404, 404},
		{"/friends/?" + acct, 404, 404, 404},
		{"/profile/a%2Fb?" + acct, 404, 404, 405},
		{"/friends/a%2Fb?" + acct, 404, 404, 405},
		{"/profile/a/b?" + acct, 404, 404, 404},
		{"/friends/a/b?" + acct, 404, 404, 404},
		{"/schools/", 404, 404, 404},
		{"/healthz/", 404, 404, 404},
		{"/register/", 404, 404, 404},
		{"/find-friends?school=x&" + acct, 400, 400, 405},
		{"/graph-search?school=x&" + acct, 400, 400, 405},
		{"/profile/no-such-id?" + acct, 404, 404, 405},
		{"/find-friends?school=0&acct=bogus", 401, 401, 405},
		// JSON wire.
		{"/api/v1/register", 405, 405, 400},
		{"/api/v1/schools", 200, 405, 405},
		{"/api/v1/search?school=0&" + acct, 200, 405, 405},
		{"/api/v1/search?city=" + city + "&" + acct, 200, 405, 405},
		{"/api/v1/search?graph=1&school=0&current=1&" + acct, 200, 405, 405},
		{"/api/v1/profile/" + open + "?" + acct, 200, 405, 405},
		{"/api/v1/friends/" + open + "?" + acct, 200, 405, 405},
		{"/api/v1/nothing-here", 404, 405, 405},
		{"/api/v1/profile/?" + acct, 404, 405, 405},
		{"/api/v1/friends/?" + acct, 404, 405, 405},
		{"/api/v1/profile/a%2Fb?" + acct, 404, 405, 405},
		{"/api/v1/friends/a%2Fb?" + acct, 404, 405, 405},
		{"/api/v1/profile/a/b?" + acct, 404, 405, 405},
		{"/api/v1/schools/", 404, 405, 405},
		{"/api/v1/healthz", 404, 405, 405},
		{"/api/v1/search?school=x&" + acct, 400, 405, 405},
		{"/api/v1/search?graph=1&school=x&" + acct, 400, 405, 405},
		{"/api/v1/admin/telemetry", 404, 405, 405},
	}
	for _, r := range rows {
		for _, m := range []struct {
			method string
			want   int
		}{{get, r.get}, {head, r.head}, {post, r.post}} {
			req, err := http.NewRequest(m.method, srv.URL+r.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != m.want {
				t.Errorf("%s %s: status %d, want %d", m.method, r.path, resp.StatusCode, m.want)
			}
		}
	}
}

// statusWorld serves a tiny world with one registered account and returns
// the token and the id of a profile whose friend list is visible.
func statusWorld(t *testing.T) (*osn.Platform, string, string) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	tok, err := p.RegisterAccount("status-probe", mustDate(1985, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := p.SchoolSearch(tok, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if pp, err := p.Profile(tok, r.ID); err == nil && pp.FriendListVisible {
			return p, tok, string(r.ID)
		}
	}
	t.Fatal("no visible friend list to probe")
	return nil, "", ""
}
