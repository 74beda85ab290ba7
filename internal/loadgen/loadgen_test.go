package loadgen

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

// TestRunCleanAgainstServer drives the closed and the open loop against
// the real /api/v1 wire on a tiny world. A fault-free server without
// limits must answer every request: no 5xx, no malformed body, no
// transport failure, and no shed, throttled or suspended answer. Hidden
// and not-found are platform answers and pass.
func TestRunCleanAgainstServer(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(osnhttp.NewServer(osn.NewPlatform(w, osn.Facebook(), osn.Config{})))
	defer srv.Close()
	const window = 300 * time.Millisecond
	for _, cfg := range []Config{
		{BaseURL: srv.URL, Workers: 4, Duration: window},
		{BaseURL: srv.URL, Rate: 500, Duration: window},
	} {
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("rate %v: %v", cfg.Rate, err)
		}
		if rep.Requests == 0 {
			t.Fatalf("rate %v: no requests measured", cfg.Rate)
		}
		for _, k := range []string{"server_5xx", "malformed", "net_timeout", "net_error", "shed", "throttled", "suspended"} {
			if n := rep.Overall.Errors[k]; n > 0 {
				t.Errorf("rate %v: %d %s outcomes", cfg.Rate, n, k)
			}
		}
		t.Logf("rate %v: %d requests, outcomes beyond 200: %v", cfg.Rate, rep.Requests, rep.Overall.Errors)
	}
}

// TestWarmupFailuresReported answers the first three profile reads with a
// 500. They fall in the warm-up, which keeps no latency, and must still
// be reported, in WarmupErrors, while the measured window stays clean.
func TestWarmupFailuresReported(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	api := osnhttp.NewServer(osn.NewPlatform(w, osn.Facebook(), osn.Config{}))
	var profiles atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/v1/profile/") && profiles.Add(1) <= 3 {
			http.Error(wr, "boom", http.StatusInternalServerError)
			return
		}
		api.ServeHTTP(wr, r)
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{BaseURL: srv.URL, Workers: 2,
		Warmup: 300 * time.Millisecond, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.WarmupErrors["server_5xx"]; n != 3 {
		t.Errorf("warm-up server_5xx = %d, want 3 (warm-up outcomes %v)", n, rep.WarmupErrors)
	}
	if n := rep.Overall.Errors["server_5xx"]; n != 0 {
		t.Errorf("measured server_5xx = %d, want 0", n)
	}
}

// TestRunRejectsBadConfig: a setting Run cannot honour fails with ErrConfig,
// naming every bad field, before any request reaches the server. Unchecked,
// these panic, never end, or return a nil error over an empty run.
func TestRunRejectsBadConfig(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		t.Errorf("server contacted: %s %s", r.Method, r.URL)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		cfg  Config
		want []string
	}{
		{Config{Accounts: -1}, []string{"Accounts"}},
		{Config{Rate: 100, MaxInflight: -1}, []string{"MaxInflight"}},
		{Config{Rate: 1e12}, []string{"Rate"}},
		{Config{Rate: math.Inf(1)}, []string{"Rate"}},
		{Config{Rate: math.NaN()}, []string{"Rate"}},
		{Config{Rate: -5}, []string{"Rate"}},
		{Config{Workers: -2}, []string{"Workers"}},
		{Config{Duration: -time.Second}, []string{"Duration"}},
		{Config{Targets: -1}, []string{"Targets"}},
		{Config{Warmup: -time.Second, Timeout: -time.Second}, []string{"Warmup", "Timeout"}},
		{Config{Mix: Mix{Search: -1, Profile: 1}}, []string{"Mix.Search"}},
		{Config{Accounts: -1, Rate: -5, Workers: -2}, []string{"Accounts", "Rate", "Workers"}},
	} {
		cfg := tc.cfg
		cfg.BaseURL = srv.URL
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := Run(ctx, cfg)
		cancel()
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%+v: err %v, want ErrConfig", tc.cfg, err)
			continue
		}
		for _, field := range tc.want {
			if !strings.Contains(err.Error(), field) {
				t.Errorf("%+v: %q does not name %s", tc.cfg, err, field)
			}
		}
	}
	if _, err := Run(context.Background(), Config{}); !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "BaseURL") {
		t.Errorf("missing BaseURL: %v", err)
	}
}
