// Command bench runs the repository's benchmark: the four headline
// workloads of internal/bench (an HS1 attack over the HTML wire, a metro
// world's cold start, an epoch rotation under read load, and serving), each
// in a fresh child process, with every end-to-end metric printed by name
// and unit and every correctness check run. BENCHMARK.json at the
// repository root names the workloads and metrics and fixes the bounds.
//
// Usage:
//
//	bench -seed 2013 -out bench.json           all workloads, untraced
//	bench -seed 2013 -out bench.json -trace 1  then again traced: per-layer
//	                                           metrics, spans and one
//	                                           obs manifest per workload
//	bench -workload attack-hs1 -seed 7 -seconds 15 -trace 0
//	                                           one workload; the last line
//	                                           of stdout is its JSON result
//	bench -compare old.json new.json           ok / regressed / unresolved
//	                                           per workload and metric
//
// run.sh in this directory builds the command inside the checkout and runs
// it with the same arguments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hsprofiler/internal/bench"
)

func main() {
	if child, code := bench.ChildMain(); child {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 2013, "workload seed: drives every world and every request pick")
	seconds := fs.Float64("seconds", 0, "measuring time per workload (0 = BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	workload := fs.String("workload", "", "run only this workload and print its JSON result as the last line")
	out := fs.String("out", "", "artifact path; traced runs also write <out>.spans.json and <out>.<workload>.manifest.json")
	compare := fs.Bool("compare", false, "compare two artifacts: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two artifact paths"))
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	b, err := bench.LoadBenchmark(".")
	if err != nil {
		return fail(err)
	}
	if err := bench.CheckConcurrency(); err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(b.RunSeconds)
	}
	workDir, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workDir)
	opts := bench.Options{Seed: *seed, Seconds: *seconds, Config: bench.DefaultConfig(), WorkDir: workDir}
	names := bench.Workloads
	if *workload != "" {
		names = []string{*workload}
	}
	// A caller reads stdout's last line, so a single workload's report goes
	// to stderr.
	log := stdout
	if *workload != "" {
		log = stderr
	}
	art, err := measure(b, opts, names, *trace == 1, log)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeArtifact(b, art, *out); err != nil {
			return fail(err)
		}
	}
	if *workload != "" {
		// The caller reads the last line: the traced run's per-layer metrics,
		// or the untraced run's end-to-end ones.
		w := art.Workloads[0]
		final := w.Untraced
		if w.Traced != nil {
			final = w.Traced
			final.Correct = final.Correct && w.Untraced.Correct
		}
		line, err := bench.ResultLine(b, final)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	correct := true
	for _, w := range art.Workloads {
		correct = correct && w.Untraced.Correct && (w.Traced == nil || w.Traced.Correct)
	}
	if !correct {
		fmt.Fprintln(stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

// workloadTimeout bounds one workload run, set-up included.
const workloadTimeout = 170 * time.Second

// measure runs the untraced set, then with trace the traced set, each
// workload in its own child, and stamps the durations into the artifact.
func measure(b *bench.Benchmark, opts bench.Options, names []string, traced bool, log io.Writer) (*bench.Artifact, error) {
	art := &bench.Artifact{Env: bench.NewEnv(b, opts), EndToEnd: b.EndToEnd}
	runOne := func(name string, tr bool) (*bench.Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout)
		defer cancel()
		return bench.RunWorkload(ctx, opts, name, tr)
	}
	start := time.Now()
	for _, name := range names {
		r, err := runOne(name, false)
		if err != nil {
			return nil, err
		}
		bench.PrintResult(log, b, r)
		art.Workloads = append(art.Workloads, bench.WorkloadReport{Name: name, Why: b.Why(name), Untraced: r})
	}
	art.Env.UntracedS = time.Since(start).Seconds()
	if traced {
		start = time.Now()
		for i := range art.Workloads {
			w := &art.Workloads[i]
			r, err := runOne(w.Name, true)
			if err != nil {
				return nil, err
			}
			bench.TraceOverhead(b, w.Untraced, r)
			bench.PrintResult(log, b, r)
			w.Traced = r
		}
		art.Env.TracedS = time.Since(start).Seconds()
	}
	return art, nil
}

// writeArtifact writes the artifact and, for traced runs, the spans file
// and one manifest per workload beside it.
func writeArtifact(b *bench.Benchmark, art *bench.Artifact, out string) error {
	spans := make(map[string][]bench.Span)
	for _, w := range art.Workloads {
		if w.Traced == nil {
			continue
		}
		path := strings.TrimSuffix(out, ".json") + "." + w.Name + ".manifest.json"
		if err := writeJSON(path, bench.Manifest(b, art.Env, w.Traced)); err != nil {
			return err
		}
		spans[w.Name] = w.Traced.Spans
		w.Traced.Spans = nil
	}
	if len(spans) > 0 {
		if err := writeJSON(strings.TrimSuffix(out, ".json")+".spans.json", spans); err != nil {
			return err
		}
	}
	return writeJSON(out, art)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func runCompare(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := bench.ReadArtifact(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cur, err := bench.ReadArtifact(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	verdicts, regressed, err := bench.Compare(old, cur)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	bench.PrintVerdicts(stdout, verdicts)
	if regressed {
		return 1
	}
	return 0
}
