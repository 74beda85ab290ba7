package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hsprofiler/internal/bench"
	"hsprofiler/internal/obs"
)

// A traced artifact is written as three kinds of file: the artifact without
// spans, the spans by workload, and a manifest per workload whose phases
// come from those spans.
func TestWriteArtifact(t *testing.T) {
	b, err := bench.LoadBenchmark(".")
	if err != nil {
		t.Fatal(err)
	}
	spans := []bench.Span{{ID: 1, Name: "collect-seeds", StartUS: 0, EndUS: 2000}}
	art := &bench.Artifact{
		Env: bench.NewEnv(b, bench.Options{Seed: 7, Seconds: 1}),
		Workloads: []bench.WorkloadReport{{
			Name:     bench.AttackHS1,
			Untraced: &bench.Result{Workload: bench.AttackHS1},
			Traced:   &bench.Result{Workload: bench.AttackHS1, Traced: true, Spans: spans},
		}},
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	if err := writeArtifact(b, art, out); err != nil {
		t.Fatal(err)
	}
	read := func(name string, v any) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	var m obs.Manifest
	read("bench."+bench.AttackHS1+".manifest.json", &m)
	if len(m.Phases) != 1 || m.Phases[0].Name != "collect-seeds" || m.Phases[0].DurationMS != 2 {
		t.Errorf("manifest phases %+v, want the one span", m.Phases)
	}
	var byWorkload map[string][]bench.Span
	read("bench.spans.json", &byWorkload)
	if len(byWorkload[bench.AttackHS1]) != 1 {
		t.Errorf("spans file %+v", byWorkload)
	}
	var back bench.Artifact
	read("bench.json", &back)
	if len(back.Workloads) != 1 || back.Workloads[0].Traced == nil || len(back.Workloads[0].Traced.Spans) != 0 {
		t.Errorf("artifact must carry the traced result without its spans: %+v", back.Workloads)
	}
}
