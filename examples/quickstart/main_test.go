package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickstart runs the example with args and returns its stdout.
func quickstart(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("quickstart %v exited %d\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// -metrics appends the crawl's Prometheus exposition, which carries the
// core crawl series.
func TestQuickstartMetrics(t *testing.T) {
	out := quickstart(t, "-metrics")
	for _, series := range []string{
		`crawl_requests_total{category="seed"}`, `crawl_requests_total{category="profile"}`,
		`crawl_requests_total{category="friendlist"}`, "crawl_request_seconds_count",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition lacks %s:\n%s", series, out)
		}
	}
}

// The event log changes nothing the experiment prints, and each of its
// lines is a JSON event with a time, a level, a category and a message: a
// torn or non-JSON line means the sink's serialization broke.
func TestEventLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if plain, logged := quickstart(t), quickstart(t, "-events", path); plain != logged {
		t.Fatalf("stdout differs with -events:\n%s\nwithout:\n%s", logged, plain)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		n++
		var e struct{ T, Lvl, Cat, Msg string }
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.T == "" || e.Lvl == "" || e.Cat == "" || e.Msg == "" {
			t.Fatalf("line %d is not a complete event: %s (%v)", n, sc.Bytes(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("event log is empty")
	}
	t.Logf("%d events, all valid JSON", n)
}
