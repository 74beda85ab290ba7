package bench

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hsprofiler/internal/obs"
)

// TestMain lets the test binary serve as the benchmark's child processes.
func TestMain(m *testing.M) {
	if child, code := ChildMain(); child {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// tinyOptions runs every workload at toy size: a tiny attack world, two
// attacks, one cold-start child, one rotation, one closed-loop serving
// child and a one-rate ladder.
func tinyOptions(t *testing.T) Options {
	return Options{Seed: 2013, Seconds: 0.5, WorkDir: t.TempDir(), Config: Config{
		AttackScenario: "tiny",
		Attacks:        Reps{Min: 2, Max: 2},
		MetroSchools:   2,
		ColdChildren:   Reps{Min: 1, Max: 1},
		RotateReps:     Reps{Min: 1, Max: 1},
		ServeChildren:  1,
		LadderSteps:    1,
	}}
}

// resultLine decodes a ResultLine and checks its shape.
func resultLine(t *testing.T, b *Benchmark, r *Result, want []MetricDef) {
	t.Helper()
	line, err := ResultLine(b, r)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("%s: result line %s: %v", r.Workload, line, err)
	}
	if got.Correct == nil || !*got.Correct || got.Failed == nil || got.Attempted < 1 || len(got.Metrics) != len(want) {
		t.Fatalf("%s: result line %s", r.Workload, line)
	}
	for _, m := range want {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Value == nil || v.Unit != m.Unit {
			t.Errorf("%s: metric %s missing or mis-unitted in %s", r.Workload, m.Name, line)
		}
	}
}

// Every workload runs end to end at toy size, untraced and traced, passes
// its checks, reports every end-to-end metric non-zero, and between them
// the traced runs report exactly the per-layer metrics BENCHMARK.json lists.
func TestSmokeAllWorkloads(t *testing.T) {
	b, err := LoadBenchmark(".")
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOptions(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	listed := make(map[string]bool)
	for _, m := range b.PerLayer {
		listed[m.Name] = true
	}
	produced := make(map[string]bool)
	for _, w := range Workloads {
		un, err := RunWorkload(ctx, opts, w, false)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		tr, err := RunWorkload(ctx, opts, w, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		TraceOverhead(b, un, tr)
		for _, r := range []*Result{un, tr} {
			if !r.Correct || r.OpsFailed != 0 || r.Reps < 1 {
				PrintResult(os.Stderr, b, r)
				t.Fatalf("%s (traced %t): correct %t, %d failed ops, %d reps", w, r.Traced, r.Correct, r.OpsFailed, r.Reps)
			}
			for _, m := range slices.Concat(b.EndToEnd, WorkloadGates[w]) {
				if v, ok := r.Value(m.Name); !ok || v <= 0 {
					t.Errorf("%s (traced %t): %s = %g", w, r.Traced, m.Name, v)
				}
			}
		}
		resultLine(t, b, un, b.EndToEnd)
		resultLine(t, b, tr, b.PerLayer)
		for name := range tr.Layers {
			if !listed[name] {
				t.Errorf("%s reports per-layer metric %s that %s does not list", w, name, BenchmarkFile)
			}
			produced[name] = true
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s traced run recorded no spans", w)
		}
	}
	for _, m := range b.PerLayer {
		if !produced[m.Name] {
			t.Errorf("no workload reports %s", m.Name)
		}
	}
}

// The benchmark file and the code agree on workloads and end-to-end metrics.
func TestBenchmarkFile(t *testing.T) {
	b, err := LoadBenchmark(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no reason", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Errorf("%s workloads %v, code runs %v", BenchmarkFile, names, Workloads)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if got, want := strings.Join(e2e, ","), strings.Join([]string{MetricSetup, MetricOp, MetricGoodput, MetricRSS}, ","); got != want {
		t.Errorf("end-to-end metrics %s, want %s", got, want)
	}
}

// A bench manifest survives runreport's loader — JSON into obs.Manifest —
// and the runreport command renders it like a production run's.
func TestManifestThroughRunreport(t *testing.T) {
	b, err := LoadBenchmark(".")
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{
		Workload: AttackHS1, Traced: true, Reps: 2, Ops: 5122, DurationS: 1.5,
		Spans: []Span{
			{ID: 1, Name: "collect-seeds", StartUS: 10, EndUS: 1010},
			{ID: 2, Parent: 1, Name: "client.search", StartUS: 20, EndUS: 120, ReqID: "a.1"},
			{ID: 3, Parent: 1, Name: "client.search", StartUS: 200, EndUS: 400, ReqID: "b.2"},
		},
		Layers: map[string]float64{"crawler.logical_requests": 2561, "core.self_ms": 3},
	}
	env := NewEnv(b, Options{Seed: 2013, Seconds: 15})
	path := filepath.Join(t.TempDir(), "attack.manifest.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Manifest(b, env, r).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "bench" || m.Scenario != AttackHS1 || m.Seed != 2013 || m.Params["nproc"] != float64(nproc) {
		t.Fatalf("manifest header %+v", m)
	}
	if len(m.Phases) != 2 || m.Phases[0].Name != "collect-seeds" || m.Phases[0].DurationMS != 1 ||
		m.Phases[1].Name != "client.search" || m.Phases[1].DurationMS != 0.3 || m.Phases[1].StartMS != 0.02 {
		t.Fatalf("phases %+v", m.Phases)
	}
	if m.Counters["crawler.logical_requests"] != 2561 {
		t.Fatalf("counters %v", m.Counters)
	}
	if _, ok := m.Counters["core.self_ms"]; ok {
		t.Fatal("a timing leaked into the counters")
	}

	if testing.Short() {
		t.Skip("rendering with cmd/runreport builds it; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	out, err := exec.Command(goBin, "run", "hsprofiler/cmd/runreport", "-manifest", path).CombinedOutput()
	if err != nil {
		t.Fatalf("runreport: %v\n%s", err, out)
	}
	for _, want := range []string{"run report: bench — attack-hs1", "phases:", "collect-seeds", "client.search", "seconds"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("runreport output lacks %q:\n%s", want, out)
		}
	}
}
