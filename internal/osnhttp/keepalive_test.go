package osnhttp

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"testing"

	"hsprofiler/internal/faults"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// traceTransport records, per round trip, whether the connection came from
// the keep-alive pool.
type traceTransport struct {
	rt     http.RoundTripper
	mu     sync.Mutex
	reused []bool
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var reused bool
	trace := &httptrace.ClientTrace{
		GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused },
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	resp, err := t.rt.RoundTrip(req)
	t.mu.Lock()
	t.reused = append(t.reused, reused)
	t.mu.Unlock()
	return resp, err
}

func (t *traceTransport) history() []bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]bool(nil), t.reused...)
}

// keepAliveClient builds an HTTP client with a fresh, traced connection
// pool (the httptest default client shares state across tests).
func keepAliveClient() (*http.Client, *traceTransport) {
	tt := &traceTransport{rt: &http.Transport{}}
	return &http.Client{Transport: tt}, tt
}

// TestClientKeepAlive drives sequential crawl requests through the client on
// both wires and requires every request after the first to reuse the pooled
// connection. A crawler that reconnects per request multiplies its
// network-level footprint and slows the attack; the client reads bodies in
// full precisely to keep the pool warm.
func TestClientKeepAlive(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	for _, wire := range []string{"html", "json"} {
		t.Run(wire, func(t *testing.T) {
			hc, tt := keepAliveClient()
			var c *Client
			if wire == "json" {
				c = NewJSONClient(srv.URL, hc, nil)
			} else {
				c = NewClient(srv.URL, hc, nil)
			}
			if err := c.RegisterAccounts(1); err != nil {
				t.Fatal(err)
			}
			res, _, err := c.Search(0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) == 0 {
				t.Fatal("no search results")
			}
			if _, err := c.Profile(0, res[0].ID); err != nil && !errors.Is(err, osn.ErrHidden) {
				t.Fatal(err)
			}
			// A 404 must not cost the connection either: the client drains
			// error bodies before mapping the status.
			if _, err := c.Profile(0, "no-such"); !errors.Is(err, osn.ErrNotFound) {
				t.Fatalf("Profile(no-such) = %v", err)
			}
			if _, _, err := c.Search(0, 0, 0); err != nil {
				t.Fatal(err)
			}
			hist := tt.history()
			if len(hist) < 4 {
				t.Fatalf("only %d round trips traced", len(hist))
			}
			for i, reused := range hist[1:] {
				if !reused {
					t.Errorf("round trip %d opened a new connection", i+1)
				}
			}
		})
	}
}

// TestKeepAliveSurvivesMalformedPages injects body damage on the wire and
// requires the connection pool to stay warm across ErrMalformed responses:
// a mangled page is still a complete HTTP response, and draining it must
// not poison the pool.
func TestKeepAliveSurvivesMalformedPages(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	// Truncate every eligible GET, capped at one consecutive fault per
	// request key: damage and clean retries interleave deterministically.
	inj := faults.New(faults.Config{Seed: 11, Truncate: 1, MaxConsecutive: 1})
	srv := httptest.NewServer(inj.Middleware(NewServer(p)))
	defer srv.Close()

	hc, tt := keepAliveClient()
	c := NewJSONClient(srv.URL, hc, nil)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err)
	}
	sawMalformed, sawClean := false, false
	for i := 0; i < 6; i++ {
		_, _, err := c.Search(0, 0, 0)
		switch {
		case err == nil:
			sawClean = true
		case errors.Is(err, osn.ErrMalformed):
			sawMalformed = true
		default:
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
	}
	if !sawMalformed || !sawClean {
		t.Fatalf("fault schedule did not interleave (malformed=%v clean=%v)", sawMalformed, sawClean)
	}
	hist := tt.history()
	for i, reused := range hist[1:] {
		if !reused {
			t.Errorf("round trip %d reconnected; malformed bodies must not poison the pool", i+1)
		}
	}
}
