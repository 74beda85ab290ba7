package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
)

// TestFlushOnInterrupt is the regression test for the SIGINT bug: an
// interrupted run must still write the trace, the manifest and the event
// log, exactly as a clean exit would. It drives runOutputs the way main's
// interrupted branch does (flush(true)) and parses every artifact back.
func TestFlushOnInterrupt(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.txt")
	manifestPath := filepath.Join(dir, "manifest.json")
	eventsPath := filepath.Join(dir, "events.jsonl")

	out, err := newRunOutputs(tracePath, manifestPath, eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.tr == nil || out.manifest == nil || out.reg == nil || out.lg == nil {
		t.Fatal("all artifacts should be armed when all outputs are requested")
	}

	// Simulate a run that gets partway through before the interrupt.
	ctx := evlog.NewContext(out.tr.Context(context.Background()), out.lg)
	stepCtx, span := obs.StartSpan(ctx, "collect-seeds")
	out.lg.Info(stepCtx, "crawl", "request", evlog.Str("category", "seed"))
	span.End()
	out.reg.Counter("crawl_requests_total", "", obs.L("category", "seed")).Inc()
	out.manifest.SetParam("school", "Test High")

	out.flush(io.Discard, io.Discard, true) // the interrupted path
	out.flush(io.Discard, io.Discard, true) // must be idempotent

	var manifest obs.Manifest
	mb, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest not written on interrupt: %v", err)
	}
	if err := json.Unmarshal(mb, &manifest); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if manifest.Tool != "hsprofile" || manifest.Params["school"] != "Test High" {
		t.Fatalf("manifest content wrong: %+v", manifest)
	}
	if len(manifest.Phases) == 0 {
		t.Fatal("interrupted manifest lost its phase timings")
	}
	if manifest.Counters[`crawl_requests_total{category="seed"}`] != 1 {
		t.Fatalf("interrupted manifest lost its counters: %v", manifest.Counters)
	}
	if manifest.Metrics == nil {
		t.Fatal("interrupted manifest lost its metrics snapshot")
	}
	if manifest.FinishedAt.IsZero() {
		t.Fatal("manifest not finished")
	}

	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written on interrupt: %v", err)
	}
	if !strings.Contains(string(tb), "collect-seeds") {
		t.Fatalf("trace tree missing the open step:\n%s", tb)
	}

	eb, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("event log not written on interrupt: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(eb)), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d event lines, want 1:\n%s", len(lines), eb)
	}
	var e map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("event line is not valid JSON: %v", err)
	}
	if e["cat"] != "crawl" || e["span"] != float64(span.ID()) {
		t.Fatalf("event not correlated to its step span: %v", e)
	}
}

// TestFlushNothingRequested checks the all-defaults path stays inert.
func TestFlushNothingRequested(t *testing.T) {
	out, err := newRunOutputs("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if out.tr != nil || out.manifest != nil || out.reg != nil || out.lg != nil {
		t.Fatal("no artifacts should be armed without output flags")
	}
	out.flush(io.Discard, io.Discard, true) // must not panic or write anything
}

// TestArchiveFailureKeepsOutputs: a run whose -archive cannot be written
// still writes its trace, manifest and event log, and only then exits 1
// naming the archive. A clean run exits 0, a failed one 1, and an
// interrupted run whose archive is written exits 130, and the archive
// restores.
func TestArchiveFailureKeepsOutputs(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "trace.txt"), filepath.Join(dir, "manifest.json"), filepath.Join(dir, "events.jsonl")}
	out, err := newRunOutputs(paths[0], paths[1], paths[2])
	if err != nil {
		t.Fatal(err)
	}
	out.lg.Info(context.Background(), "crawl", "request")
	var stderr bytes.Buffer
	archivePath := filepath.Join(dir, "missing", "archive.json")
	code := finish(io.Discard, &stderr, out, archivePath, cache.New(nil), nil)
	if code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	for _, path := range paths {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("output lost to the archive failure: %v", err)
		}
	}
	if msg := stderr.String(); !strings.Contains(msg, "hsprofile: archive "+archivePath) {
		t.Fatalf("stderr does not name the archive:\n%s", msg)
	}

	out, err = newRunOutputs("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if code := finish(io.Discard, io.Discard, out, "", cache.New(nil), nil); code != 0 {
		t.Fatalf("clean run: exit status %d, want 0", code)
	}
	if code := finish(io.Discard, io.Discard, out, "", cache.New(nil), errors.New("crawl failed")); code != 1 {
		t.Fatalf("failed run: exit status %d, want 1", code)
	}
	archivePath = filepath.Join(dir, "archive.json")
	if code := finish(io.Discard, io.Discard, out, archivePath, cache.New(nil), context.Canceled); code != 130 {
		t.Fatalf("interrupted run: exit status %d, want 130", code)
	}
	f, err := os.Open(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := cache.ReadJSON(f, nil); err != nil {
		t.Fatalf("interrupted run's archive: %v", err)
	}
}
