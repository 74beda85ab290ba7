package osnhttp

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func TestEndpointName(t *testing.T) {
	cases := map[string]string{
		"/register":          "register",
		"/schools":           "schools",
		"/find-friends":      "search",
		"/graph-search":      "search",
		"/city-search":       "search",
		"/profile/u123":      "profile",
		"/friends/u123":      "friendlist",
		"/metrics":           "other",
		"/":                  "other",
		"/profile":           "profile",
		"/friends/u1/extra":  "friendlist",
		"/find-friends/deep": "search",
		// The JSON API folds onto the same endpoint families.
		"/api/v1/search":        "search",
		"/api/v1/schools":       "schools",
		"/api/v1/register":      "register",
		"/api/v1/profile/u123":  "profile",
		"/api/v1/friends/u123":  "friendlist",
		"/api/v1/unknown-route": "other",
		"/healthz":              "healthz",
	}
	for path, want := range cases {
		if got := route(path).family().String(); got != want {
			t.Errorf("route(%q) family %q, want %q", path, got, want)
		}
	}
}

// TestServerMetricsExposition drives an instrumented server into every
// interesting status — success, not-found, throttle (503) and suspension
// (429) — and checks the scrape carries the full catalogue.
func TestServerMetricsExposition(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{
		RequestBudget:  3, // account suspends quickly → 429s
		ThrottleLimit:  2, // and throttles even quicker → 503s
		ThrottleWindow: time.Minute,
	})
	now := time.Unix(1000, 0)
	p.SetClock(func() time.Time { return now })
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(p).Instrument(reg))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err)
	}
	// Trip the throttle (requests 1-2 pass, 3 gets a 503), drain the
	// window, then exhaust the request budget (suspension, 429). Errors
	// are the point here, not a problem.
	for i := 0; i < 3; i++ {
		c.Search(0, 0, 0)
	}
	now = now.Add(2 * time.Minute)
	for i := 0; i < 3; i++ {
		c.Search(0, 0, 0)
	}
	c.Profile(0, "no-such-user")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`# TYPE osn_http_requests_total counter`,
		`# TYPE osn_http_request_seconds histogram`,
		`osn_http_requests_total{code="200",endpoint="register"} 1`,
		`osn_http_requests_total{code="503",endpoint="search"}`,
		`osn_http_request_seconds_bucket{endpoint="search",le="+Inf"}`,
		`osn_http_request_seconds_count{endpoint="search"}`,
		`osn_http_inflight_requests 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	snap := reg.Counters()
	if snap[`osn_http_throttled_total`] == 0 {
		t.Error("no throttles counted")
	}
	if snap[`osn_http_suspensions_total`] == 0 {
		t.Error("no suspensions counted")
	}
	// Pre-registered zero series must exist even for endpoints never hit.
	if _, ok := snap[`osn_http_requests_total{code="200",endpoint="friendlist"}`]; !ok {
		t.Error("friendlist series not pre-registered")
	}
}

// TestUninstrumentedServerUnchanged checks the nil-registry path serves
// identically with zero instrumentation state.
func TestUninstrumentedServerUnchanged(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	s := NewServer(p).Instrument(nil)
	if s.metrics != nil {
		t.Fatal("nil registry installed metrics")
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LookupSchool(p.Schools()[0].Name); err != nil {
		t.Fatal(err)
	}
}
