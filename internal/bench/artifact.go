package bench

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"hsprofiler/internal/obs"
)

// BenchmarkFile is the name of the file at the repository root that fixes
// the benchmark's workloads, metrics and bounds.
const BenchmarkFile = "BENCHMARK.json"

// MetricDef is one metric entry of BENCHMARK.json. Bound is the share of
// the baseline median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Benchmark is the parsed BENCHMARK.json.
type Benchmark struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
	// Digest is the SHA-256 of the file's bytes.
	Digest string `json:"-"`
}

// LoadBenchmark finds BENCHMARK.json in dir or the nearest directory above
// it and parses it.
func LoadBenchmark(dir string) (*Benchmark, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, BenchmarkFile))
		if err == nil {
			var b Benchmark
			if err := json.Unmarshal(raw, &b); err != nil {
				return nil, fmt.Errorf("bench: parsing %s: %w", BenchmarkFile, err)
			}
			b.Digest = fmt.Sprintf("%x", sha256.Sum256(raw))
			return &b, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("bench: no %s in or above the working directory", BenchmarkFile)
		}
		dir = parent
	}
}

// Why returns a workload's recorded reason.
func (b *Benchmark) Why(workload string) string {
	for _, w := range b.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// Env is the environment stamp every artifact carries.
type Env struct {
	NumCPU          int       `json:"nproc"`
	GOMAXPROCS      int       `json:"gomaxprocs"`
	GoVersion       string    `json:"go_version"`
	GOOS            string    `json:"goos"`
	GOARCH          string    `json:"goarch"`
	GitDescribe     string    `json:"git_describe"`
	Seed            uint64    `json:"seed"`
	Seconds         float64   `json:"seconds"`
	BenchmarkDigest string    `json:"benchmark_digest"`
	Config          Config    `json:"config"`
	StartedAt       time.Time `json:"started_at"`
	// UntracedS and TracedS are the measured wall times of the untraced and
	// the traced set.
	UntracedS float64 `json:"untraced_s"`
	TracedS   float64 `json:"traced_s,omitempty"`
}

// NewEnv stamps the current process's environment.
func NewEnv(b *Benchmark, opts Options) Env {
	return Env{
		NumCPU:          nproc,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		GitDescribe:     obs.GitDescribe(),
		Seed:            opts.Seed,
		Seconds:         opts.Seconds,
		BenchmarkDigest: b.Digest,
		Config:          opts.Config,
		StartedAt:       time.Now().UTC(),
	}
}

// WorkloadReport is one workload's entry in an artifact: its untraced run,
// and with tracing its traced run and the tracing overhead on each
// end-to-end metric.
type WorkloadReport struct {
	Name     string  `json:"name"`
	Why      string  `json:"why"`
	Untraced *Result `json:"untraced"`
	Traced   *Result `json:"traced,omitempty"`
}

// Artifact is the file one benchmark invocation writes.
type Artifact struct {
	Env       Env              `json:"env"`
	EndToEnd  []MetricDef      `json:"end_to_end"`
	Workloads []WorkloadReport `json:"workloads"`
}

// TraceOverhead fills the traced result's bench.trace_overhead_pct.<metric>
// layers: how much worse the armed wrappers made each end-to-end metric, as
// a percentage of the untraced value (negative when the traced run read
// better).
func TraceOverhead(b *Benchmark, untraced, traced *Result) {
	for _, m := range b.EndToEnd {
		u, ok1 := untraced.Value(m.Name)
		t, ok2 := traced.Value(m.Name)
		if !ok1 || !ok2 || u == 0 {
			continue
		}
		worse := (t - u) / u
		if m.Better == "higher" {
			worse = -worse
		}
		traced.Layers["bench.trace_overhead_pct."+m.Name] = 100 * worse
	}
}

// ResultLine is the one-line result a caller running one workload reads: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one. A per-layer metric the workload does not exercise reads 0.
func ResultLine(b *Benchmark, r *Result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if r.Traced {
		for _, m := range b.PerLayer {
			metrics[m.Name] = value{r.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range b.EndToEnd {
			v, ok := r.Value(m.Name)
			if !ok {
				return nil, fmt.Errorf("bench: %s did not report %s", r.Workload, m.Name)
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	attempted := r.Ops
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, attempted, r.OpsFailed, metrics})
}

// PrintResult writes every metric of a run by name with its unit, then its
// checks.
func PrintResult(w io.Writer, b *Benchmark, r *Result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s (%s, %d reps, %.1fs): ops %d, failed %d, correct %t\n",
		r.Workload, kind, r.Reps, r.DurationS, r.Ops, r.OpsFailed, r.Correct)
	for _, m := range slices.Concat(b.EndToEnd, WorkloadGates[r.Workload]) {
		s := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-28s %12.4f %-6s (n %d, q1 %.4g, q3 %.4g", m.Name, s.Median, m.Unit, s.N, s.Q1, s.Q3)
		if s.TailPct > 0 {
			fmt.Fprintf(w, ", p%g %.4g", s.TailPct, s.Tail)
		}
		fmt.Fprintln(w, ")")
	}
	for _, k := range sortedKeys(r.Detail) {
		fmt.Fprintf(w, "  %-28s %12.4f\n", k, r.Detail[k])
	}
	if r.Traced {
		for _, m := range b.PerLayer {
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", m.Name, r.Layers[m.Name], m.Unit)
		}
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-24s %s\n", mark, c.Name, c.Detail)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Manifest renders a traced run as an obs.Manifest, so cmd/runreport reads
// a bench run the way it reads a production run: the phases are the
// recorded spans aggregated by name, the counters are the per-layer
// counts, and the params are the environment.
func Manifest(b *Benchmark, env Env, r *Result) *obs.Manifest {
	m := obs.NewManifest("bench")
	m.StartedAt = env.StartedAt
	m.Seed = env.Seed
	m.Scenario = r.Workload
	for k, v := range map[string]any{
		"nproc": env.NumCPU, "gomaxprocs": env.GOMAXPROCS, "go_version": env.GoVersion,
		"git_describe": env.GitDescribe, "seconds": env.Seconds, "reps": r.Reps,
		"benchmark_digest": env.BenchmarkDigest, "ops": r.Ops, "ops_failed": r.OpsFailed,
	} {
		m.SetParam(k, v)
	}
	type agg struct {
		first, total float64
		n            int
	}
	byName := make(map[string]*agg)
	var names []string
	for _, s := range r.Spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{first: s.StartUS}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.total += s.EndUS - s.StartUS
		a.n++
	}
	sort.SliceStable(names, func(i, j int) bool { return byName[names[i]].first < byName[names[j]].first })
	for _, n := range names {
		a := byName[n]
		m.Phases = append(m.Phases, obs.Phase{Name: n, StartMS: a.first / 1e3, DurationMS: a.total / 1e3})
	}
	m.Counters = make(map[string]float64)
	for _, def := range b.PerLayer {
		if v, ok := r.Layers[def.Name]; ok && def.Unit == "count" {
			m.Counters[def.Name] = v
		}
	}
	m.FinishedAt = m.StartedAt.Add(time.Duration(r.DurationS * float64(time.Second)))
	return m
}
