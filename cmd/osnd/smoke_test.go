package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/loadgen"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn/telemetry"
)

// End-to-end runs of the daemon: osnd serves in this process on ports the
// kernel picks, and the module's one-shot commands (worldgen, hsprofile,
// loadgen, runreport) run against it as `go run` children with the flags
// an operator would give them.

// A binary world from the parallel generator, reloaded and served: the
// graph is decoded straight into the CSR snapshot the platform reads.
func TestSnapshotServe(t *testing.T) {
	t.Parallel()
	world := filepath.Join(t.TempDir(), "tiny.world")
	goRun(t, "worldgen", "-scenario", "tiny", "-seed", "42", "-workers", "4", "-format", "bin", "-o", world, "-stats")
	d := startOSND(t, "-world", world, "-addr", "127.0.0.1:0")
	if body := get(t, d.url+"/schools"); !bytes.Contains(body, []byte("schoolname")) {
		t.Fatalf("/schools lacks schoolname:\n%s", body)
	}
}

// -metrics-addr serves the required series, a JSON snapshot with counters
// and the health probe, on a platform that injects faults.
func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	d := startOSND(t, "-scenario", "tiny", "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-faults", "0.05")
	// One request through the fault injector, whatever it answers.
	if resp, err := http.Get(d.url + "/schools"); err == nil {
		resp.Body.Close()
	}
	metrics := string(get(t, d.metrics+"/metrics"))
	for _, series := range []string{
		"osn_http_requests_total", "osn_http_request_seconds_bucket", "osn_http_throttled_total",
		"osn_http_suspensions_total", "osn_plane_requests_total", "osn_freeze_seconds",
		"osn_shard_contention_total", "faults_injected_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
	var snap obs.MetricsSnapshot
	getJSON(t, d.metrics+"/metrics.json", &snap)
	if len(snap.Counters) == 0 {
		t.Error("/metrics.json has no counters")
	}
	var health struct{ Status string }
	getJSON(t, d.metrics+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("/healthz status %q, want ok", health.Status)
	}
}

var (
	effortLine = regexp.MustCompile(`effort: \d+ seed \+ (\d+) profile \+ (\d+) friend-list`)
	localLine  = regexp.MustCompile(`archive cache: (\d+) requests served locally`)
	classLine  = regexp.MustCompile(`class of (\d+): (\d+) students`)
	joinedLine = regexp.MustCompile(`joined: (\d+)/(\d+)`)
)

// The observability path end to end: osnd with its event log, an
// hsprofile crawl writing trace, manifest, event log and archive, a second
// crawl resumed from that archive, and runreport merging the first one's
// artifacts. The resumed run must serve every profile and friend-list
// request locally and infer the same classes.
func TestFlightRecorder(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	d := startOSND(t, "-scenario", "tiny", "-addr", "127.0.0.1:0", "-throttle-limit", "200", "-faults", "0.05",
		"-events-out", path("osnd-events.jsonl"))
	attack := []string{"-url", d.url, "-school", d.await(t, schoolBanner)[1], "-year", "2012", "-accounts", "3", "-mode", "enhanced", "-t", "60"}
	goRun(t, "hsprofile", append(attack, "-trace-out", path("run-trace.txt"), "-manifest-out", path("run-manifest.json"),
		"-events-out", path("run-events.jsonl"), "-archive", path("run-archive.json"))...)
	resumed := goRun(t, "hsprofile", append(attack, "-resume", path("run-archive.json"))...)
	d.stop(t)

	if !strings.Contains(resumed, "resuming:") {
		t.Fatalf("resumed run has no resuming banner:\n%s", resumed)
	}
	effort, local := effortLine.FindStringSubmatch(resumed), localLine.FindStringSubmatch(resumed)
	if effort == nil || local == nil {
		t.Fatalf("resumed run lacks its effort or served-locally line:\n%s", resumed)
	}
	if served, fetches := atoi(t, local[1]), atoi(t, effort[1])+atoi(t, effort[2]); served != fetches {
		t.Errorf("resumed run served %d requests locally, want its %d profile + friend-list requests", served, fetches)
	}
	var first struct {
		Params struct {
			ByYear map[string]int `json:"result_by_year"`
		}
	}
	readJSON(t, path("run-manifest.json"), &first)
	classes := map[string]int{}
	for _, m := range classLine.FindAllStringSubmatch(resumed, -1) {
		classes[m[1]] = atoi(t, m[2])
	}
	if len(classes) == 0 || !maps.Equal(classes, first.Params.ByYear) {
		t.Errorf("resumed run's classes %v, first run's %v", classes, first.Params.ByYear)
	}
	t.Logf("resumed: %s = %s + %s requests served locally, classes %v", local[1], effort[1], effort[2], classes)

	report := goRun(t, "runreport", "-manifest", path("run-manifest.json"), "-events", path("run-events.jsonl"))
	for _, want := range []string{"phases:", "paper-table summary:"} {
		if !strings.Contains(report, want) {
			t.Errorf("runreport lacks %q:\n%s", want, report)
		}
	}
	for _, log := range []string{path("run-events.jsonl"), path("osnd-events.jsonl")} {
		if countEvents(t, log) == 0 {
			t.Errorf("%s holds no events", log)
		}
	}
}

// Production timeouts and inflight caps under an open-loop burst on the
// JSON API: no 5xx, malformed body or network error, and the report's
// latency histogram covers every request.
func TestServingUnderLoad(t *testing.T) {
	t.Parallel()
	d := startOSND(t, "-scenario", "tiny", "-addr", "127.0.0.1:0",
		"-read-timeout", "15s", "-write-timeout", "30s", "-shutdown-grace", "5s",
		"-inflight-search", "64", "-inflight-profile", "64", "-inflight-friends", "64")
	var health struct{ Status string }
	getJSON(t, d.url+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("/healthz status %q, want ok", health.Status)
	}
	out := filepath.Join(t.TempDir(), "load.json")
	goRun(t, "loadgen", "-url", d.url, "-rate", "300", "-duration", "5s", "-warmup", "1s", "-out", out)
	d.stop(t)

	rep := cleanBurst(t, out)
	o := rep.Overall
	if rep.Requests == 0 || len(o.HistLowsUs) == 0 || len(o.HistLowsUs) != len(o.HistCounts) {
		t.Fatalf("%d requests, histogram %d lows against %d counts", rep.Requests, len(o.HistLowsUs), len(o.HistCounts))
	}
	var n uint64
	for _, c := range o.HistCounts {
		n += c
	}
	if n != o.Requests {
		t.Errorf("histogram holds %d of %d requests", n, o.Requests)
	}
	t.Logf("%d requests, p50 %dus, p99 %dus", o.Requests, o.P50Us, o.P99Us)
}

// -evolve on a JSON world, bounded at 3 epochs, rotates under an open-loop
// burst.
func TestTemporalServing(t *testing.T) {
	t.Parallel()
	world := filepath.Join(t.TempDir(), "tiny-ev.world")
	goRun(t, "worldgen", "-scenario", "tiny", "-seed", "7", "-format", "json", "-o", world)
	rotateUnderLoad(t, startOSND(t, "-world", world, "-addr", "127.0.0.1:0",
		"-evolve", "-evolve-interval", "1s", "-evolve-epochs", "3", "-evolve-workers", "4"))
}

// The incremental-rotation path on the shape a metro snapshot has: a binary
// city world from the parallel generator, served with -evolve, so every
// rotation patches the CSR snapshot and rebuilds epoch views from the
// dirty sets.
func TestTemporalServingCity(t *testing.T) {
	t.Parallel()
	world := filepath.Join(t.TempDir(), "city.world")
	goRun(t, "worldgen", "-scenario", "city", "-schools", "6", "-seed", "9", "-workers", "4", "-format", "bin", "-o", world, "-stats")
	d := startOSND(t, "-world", world, "-addr", "127.0.0.1:0",
		"-evolve", "-evolve-interval", "1s", "-evolve-epochs", "3", "-evolve-workers", "4")
	rotateUnderLoad(t, d)
	if !strings.Contains(d.stdout.String(), "incremental") {
		t.Errorf("no epoch was built incrementally:\n%s", d.stdout)
	}
}

// rotateUnderLoad runs an open-loop burst against an evolving daemon and
// samples /healthz's epoch id every 200 ms until the burst ends, then stops
// the daemon. The ids must never go back and must reach 3, and the burst
// must be clean.
func rotateUnderLoad(t *testing.T, d *daemon) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "load.json")
	load := goStart(t, "loadgen", "-url", d.url, "-rate", "200", "-duration", "5s", "-warmup", "500ms", "-out", out)
	var epochs []uint64
	for sampling := true; sampling; {
		var health struct{ Epoch uint64 }
		getJSON(t, d.url+"/healthz", &health)
		epochs = append(epochs, health.Epoch)
		select {
		case <-load.done:
			sampling = false
		case <-time.After(200 * time.Millisecond):
		}
	}
	load.wait(t)
	d.stop(t)
	if !slices.IsSorted(epochs) || epochs[len(epochs)-1] != 3 {
		t.Errorf("epoch ids %v, want them monotone and reaching 3", epochs)
	}
	rep := cleanBurst(t, out)
	t.Logf("%d requests across epochs %v", rep.Requests, epochs)
}

// The defender's view: HS1 served with the admin watchtower on, the paper's
// crawl and an organically weighted loadgen burst against it. The live
// telemetry must rank every crawler account above every loadgen account on
// search fan-out and crawler-likeness score, the burst must be clean with
// telemetry recording underneath it, and runreport must join at least 95%
// of the crawler's wire events to the server's access log by request id.
func TestWatchtowerTelemetry(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	d := startOSND(t, "-scenario", "hs1", "-addr", "127.0.0.1:0", "-admin",
		"-telemetry-window", "300s", "-telemetry-rollup", "2s", "-events-out", path("tel-server.jsonl"))
	goRun(t, "hsprofile", "-url", d.url, "-school", d.await(t, schoolBanner)[1], "-year", "2012",
		"-accounts", "2", "-t", "500", "-workers", "4", "-req-seed", "7",
		"-manifest-out", path("tel-manifest.json"), "-events-out", path("tel-client.jsonl"))
	goRun(t, "loadgen", "-url", d.url, "-rate", "100", "-duration", "5s", "-warmup", "500ms",
		"-mix", "search=0,profile=8,friends=4", "-targets", "64", "-accounts", "2", "-out", path("tel-load.json"))
	var tel struct{ Accounts []telemetry.AccountSnapshot }
	getJSON(t, d.url+"/api/v1/admin/telemetry", &tel)
	d.stop(t)

	var crawlers, loaders []telemetry.AccountSnapshot
	for _, a := range tel.Accounts {
		if strings.Contains(a.Token, "crawler") {
			crawlers = append(crawlers, a)
		}
		if strings.Contains(a.Token, "loadgen") {
			loaders = append(loaders, a)
		}
	}
	if len(crawlers) == 0 || len(loaders) == 0 {
		t.Fatalf("telemetry accounts %+v, want crawler and loadgen accounts", tel.Accounts)
	}
	for _, c := range crawlers {
		for _, l := range loaders {
			if c.Searches <= l.Searches || c.Score <= l.Score {
				t.Errorf("%s (%d searches, score %.1f) does not rank above %s (%d searches, score %.1f)",
					c.Token, c.Searches, c.Score, l.Token, l.Searches, l.Score)
			}
			t.Logf("%s (%d searches, score %.1f) above %s (%d searches, score %.1f)",
				c.Token, c.Searches, c.Score, l.Token, l.Searches, l.Score)
		}
	}
	cleanBurst(t, path("tel-load.json"))

	report := goRun(t, "runreport", "-manifest", path("tel-manifest.json"),
		"-events", path("tel-client.jsonl"), "-server-events", path("tel-server.jsonl"))
	for _, want := range []string{"wire correlation", "defender view"} {
		if !strings.Contains(report, want) {
			t.Errorf("runreport lacks %q:\n%s", want, report)
		}
	}
	m := joinedLine.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("runreport has no joined line:\n%s", report)
	}
	if joined, total := atoi(t, m[1]), atoi(t, m[2]); total == 0 || 100*joined < 95*total {
		t.Errorf("joined %d of %d wire events, want at least 95%%", joined, total)
	}
	t.Logf("joined %s/%s wire events", m[1], m[2])
}

// cleanBurst reads loadgen's -out report and requires that no request,
// warm-up included, met a 5xx, a malformed body, a timeout or a network
// error.
func cleanBurst(t *testing.T, path string) *loadgen.Report {
	t.Helper()
	var rep loadgen.Report
	readJSON(t, path, &rep)
	if rep.Overall == nil {
		t.Fatalf("%s has no overall report", path)
	}
	for _, k := range []string{"server_5xx", "malformed", "net_timeout", "net_error"} {
		if n := rep.Overall.Errors[k]; n != 0 {
			t.Errorf("%d requests ended %s (outcomes %v)", n, k, rep.Overall.Errors)
		}
		if n := rep.WarmupErrors[k]; n != 0 {
			t.Errorf("%d warm-up requests ended %s (outcomes %v)", n, k, rep.WarmupErrors)
		}
	}
	return &rep
}

// countEvents returns how many events the JSONL log at path holds; every
// line must be a non-empty JSON object.
func countEvents(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || len(e) == 0 {
			t.Fatalf("%s line %d is not an event: %q (%v)", path, n+1, sc.Text(), err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
