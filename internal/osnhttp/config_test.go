package osnhttp

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func TestServerConfigWithDefaults(t *testing.T) {
	// Zero fields fill from the defaults; explicit values survive.
	c := ServerConfig{ReadTimeout: time.Second}.WithDefaults()
	d := DefaultServerConfig()
	if c.ReadTimeout != time.Second {
		t.Errorf("explicit ReadTimeout overwritten: %v", c.ReadTimeout)
	}
	if c.ReadHeaderTimeout != d.ReadHeaderTimeout || c.WriteTimeout != d.WriteTimeout ||
		c.IdleTimeout != d.IdleTimeout || c.ShutdownGrace != d.ShutdownGrace {
		t.Errorf("defaults not applied: %+v", c)
	}
	// Negatives pass through for Validate to reject — never silently fixed.
	n := ServerConfig{ReadTimeout: -time.Second}.WithDefaults()
	if n.ReadTimeout != -time.Second {
		t.Errorf("negative ReadTimeout normalized to %v", n.ReadTimeout)
	}
	if DefaultServerConfig().Validate() != nil {
		t.Error("defaults do not validate")
	}
}

func TestServerConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ServerConfig)
		want string
	}{
		{"negative read header", func(c *ServerConfig) { c.ReadHeaderTimeout = -1 }, "read header timeout"},
		{"negative read", func(c *ServerConfig) { c.ReadTimeout = -1 }, "read timeout"},
		{"negative write", func(c *ServerConfig) { c.WriteTimeout = -1 }, "write timeout"},
		{"negative idle", func(c *ServerConfig) { c.IdleTimeout = -1 }, "idle timeout"},
		{"negative grace", func(c *ServerConfig) { c.ShutdownGrace = -1 }, "shutdown grace"},
		{"negative search cap", func(c *ServerConfig) { c.SearchInflight = -1 }, "search inflight"},
		{"negative profile cap", func(c *ServerConfig) { c.ProfileInflight = -2 }, "profile inflight"},
		{"negative friend cap", func(c *ServerConfig) { c.FriendInflight = -3 }, "friend inflight"},
	}
	for _, tc := range cases {
		c := DefaultServerConfig()
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: validated clean", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// All complaints arrive at once, not first-wins.
	c := ServerConfig{ReadTimeout: -1, SearchInflight: -1}.WithDefaults()
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "read timeout") || !strings.Contains(err.Error(), "search inflight") {
		t.Errorf("joined validation lost a complaint: %v", err)
	}
}

func TestHTTPServerCarriesTimeouts(t *testing.T) {
	c := DefaultServerConfig()
	srv := c.HTTPServer(":0", nil)
	if srv.ReadHeaderTimeout != c.ReadHeaderTimeout || srv.ReadTimeout != c.ReadTimeout ||
		srv.WriteTimeout != c.WriteTimeout || srv.IdleTimeout != c.IdleTimeout {
		t.Errorf("timeouts not forwarded: %+v", srv)
	}
}

// TestLimiterShedsOverCap saturates the search family's semaphore and
// checks the next search is shed with the 503 overload envelope (plus
// Retry-After), other families keep serving, and the shed is counted.
func TestLimiterShedsOverCap(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	reg := obs.NewRegistry()
	s := NewServer(p).Instrument(reg).WithLimits(1, 0, 0)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := NewJSONClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err)
	}

	// Hold the only search slot, as a slow in-handler request would.
	s.limits[famSearch] <- struct{}{}
	_, _, err = c.Search(0, 0, 0)
	if !errors.Is(err, osn.ErrThrottled) {
		t.Fatalf("saturated search = %v, want ErrThrottled (overload shed)", err)
	}
	resp, rerr := srv.Client().Get(srv.URL + "/api/v1/search?school=0&acct=x")
	if rerr != nil {
		t.Fatal(rerr)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("shed status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	// Uncapped families are unaffected while search is saturated.
	if _, err := c.Profile(0, "no-such"); !errors.Is(err, osn.ErrNotFound) {
		t.Fatalf("profile family affected by search saturation: %v", err)
	}
	// The HTML surface sits behind the same limiter.
	hresp, herr := srv.Client().Get(srv.URL + "/find-friends?school=0&acct=x")
	if herr != nil {
		t.Fatal(herr)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 503 {
		t.Fatalf("HTML shed status %d, want 503", hresp.StatusCode)
	}

	// Release the slot: the family serves again.
	<-s.limits[famSearch]
	if _, _, err := c.Search(0, 0, 0); err != nil {
		t.Fatalf("post-release search: %v", err)
	}
	if n := reg.Counters()["osn_http_shed_total"]; n < 3 {
		t.Errorf("shed counter %v, want >= 3", n)
	}
}

// TestDrainWaitsForInflight holds a request inside a handler-side slot and
// checks Drain reports it, then drains cleanly once released.
func TestDrainReportsInflight(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	s := NewServer(p)
	if got := s.Inflight(); got != 0 {
		t.Fatalf("idle inflight %d", got)
	}
	// Simulate one stuck request for the accounting: Drain must report it
	// after the shutdown grace expires.
	s.inflight.Add(1)
	cfg := DefaultServerConfig()
	cfg.ShutdownGrace = 10 * time.Millisecond
	srv := cfg.HTTPServer("127.0.0.1:0", s)
	remaining, _ := cfg.Drain(srv, s)
	if remaining != 1 {
		t.Fatalf("Drain reported %d inflight, want 1", remaining)
	}
	s.inflight.Add(-1)
}
