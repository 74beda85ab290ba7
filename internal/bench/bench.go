// Package bench is the repository's benchmark: four workloads that each
// drive one headline path of the system end to end, an open-loop read
// generator, timing wrappers that attribute a traced run's time to layers
// from outside the program, the statistics and artifact they report, and
// the comparison that gates one artifact against another.
//
// Every workload runs in a fresh child process of the running binary with
// GOMAXPROCS equal to the machine's CPU count, and that process runs the
// timed work in further children: the attacks in one, the metro workloads
// one per repetition, because a cold start or a rotation measured in a
// process that already holds the previous repetition's heap is not the
// same measurement. The workload process itself only times the probe its
// children ask for (see calibrate.go). See README.md for the workloads,
// the metric definitions and how to run them.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// Workload names, in the order the benchmark runs them.
const (
	AttackHS1      = "attack-hs1"
	ColdstartMetro = "coldstart-metro"
	RotateMetro    = "rotate-metro"
	ServeMetro     = "serve-metro"
)

// Workloads lists every workload name.
var Workloads = []string{AttackHS1, ColdstartMetro, RotateMetro, ServeMetro}

// End-to-end metric names. Every workload reports all four; what "one
// operation" is differs per workload (see README.md).
const (
	MetricSetup   = "setup_s"
	MetricOp      = "op_ms"
	MetricGoodput = "goodput_per_s"
	MetricRSS     = "peak_rss_mb"
)

// Reps bounds a workload's repetitions: at least Min, then more while the
// run's seconds last, at most Max.
type Reps struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// more reports whether repetition i (0-based) should run, given how long
// the repetitions so far took and the budget.
func (r Reps) more(i int, elapsed, budget time.Duration) bool {
	return i < r.Max && (i < r.Min || elapsed < budget)
}

// Config sizes the workloads. DefaultConfig is the benchmark; the tests run
// a tiny one through the same code.
type Config struct {
	// AttackScenario is "hs1" (the paper's calibrated HS1 school) or "tiny".
	AttackScenario string `json:"attack_scenario"`
	Attacks        Reps   `json:"attacks"`
	// MetroSchools sizes the metro world: worldgen.MetroConfig(MetroSchools).
	MetroSchools int  `json:"metro_schools"`
	ColdChildren Reps `json:"cold_children"`
	RotateReps   Reps `json:"rotate_reps"`
	// ServeChildren is how many closed-loop children share 60% of
	// serve-metro's seconds; one more child runs the ladder in the rest,
	// LadderSteps rates from ladderStart up by ×1.25.
	ServeChildren int `json:"serve_children"`
	LadderSteps   int `json:"ladder_steps"`
}

// DefaultConfig is the benchmark's configuration.
func DefaultConfig() Config {
	return Config{
		AttackScenario: "hs1",
		Attacks:        Reps{Min: 3, Max: 400},
		MetroSchools:   80,
		ColdChildren:   Reps{Min: 3, Max: 40},
		RotateReps:     Reps{Min: 3, Max: 10},
		ServeChildren:  4,
		LadderSteps:    8,
	}
}

// The read mix and the metro workloads' fixed sizes.
const (
	readRate       = 1000 // rotate-metro's open-loop reads per second
	ladderStart    = 2000 // serve-metro's first ladder rate, reads per second
	readAccounts   = 4
	readTargets    = 256
	snapshotWrites = 3 // coldstart-metro's set-up samples
)

// nproc is the CPU count every concurrency setting derives from: the
// crawl's workers, the read generators' senders and connections, and the
// children's GOMAXPROCS.
var nproc = runtime.NumCPU()

// CheckConcurrency refuses a process whose GOMAXPROCS exceeds the CPU
// count: goroutines beyond the cores only time-slice, and a "speedup"
// measured that way cannot be real.
func CheckConcurrency() error {
	if g := runtime.GOMAXPROCS(0); g > nproc {
		return fmt.Errorf("bench: GOMAXPROCS=%d exceeds the %d CPUs; refusing to measure", g, nproc)
	}
	return nil
}

// Options is one benchmark invocation's settings.
type Options struct {
	Seed    uint64
	Seconds float64
	Config  Config
	// WorkDir holds the snapshots the metro workloads write; it must exist.
	WorkDir string
}

// spec is what a child process is told to do. It travels in childEnv.
type spec struct {
	Role     string  `json:"role"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Config   Config  `json:"config"`
	WorkDir  string  `json:"work_dir"`
	// Metro repetition inputs.
	Snapshot    string `json:"snapshot,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Schools     []int  `json:"schools,omitempty"`
	// Ladder makes a serve child run the rate ladder instead of the closed
	// loop.
	Ladder bool `json:"ladder,omitempty"`
}

func (sp spec) budget() time.Duration { return time.Duration(sp.Seconds * float64(time.Second)) }

// childEnv carries a child's spec; its presence makes a process a child.
const childEnv = "HSPROFILER_BENCH_CHILD"

// ChildMain runs the process as a benchmark child when its parent started
// it as one. It reports whether it did, and the exit code to use; when it
// reports false the caller carries on as usual. Call it first in main, and
// in TestMain of any test that runs workloads.
func ChildMain() (isChild bool, code int) {
	raw, ok := os.LookupEnv(childEnv)
	if !ok {
		return false, 0
	}
	var sp spec
	if err := json.Unmarshal([]byte(raw), &sp); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad child spec: %v\n", err)
		return true, 2
	}
	// A workload child that is asked to stop stops its own children first;
	// repetition children simply die.
	ctx := context.Background()
	if sp.Role == "workload" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
	}
	out, err := runRole(ctx, sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", sp.Role, sp.Workload, err)
		return true, 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing child result: %v\n", err)
		return true, 1
	}
	return true, 0
}

// runRole dispatches a child's spec.
func runRole(ctx context.Context, sp spec) (any, error) {
	if err := CheckConcurrency(); err != nil {
		return nil, err
	}
	switch sp.Role {
	case "workload":
		switch sp.Workload {
		case AttackHS1:
			return runAttack(ctx, sp)
		case ColdstartMetro, RotateMetro, ServeMetro:
			return runMetro(ctx, sp)
		}
		return nil, fmt.Errorf("unknown workload %q", sp.Workload)
	case "attack":
		return attackChild(ctx, sp, childProbeLink())
	case "coldstart":
		return coldstartChild(ctx, sp, childProbeLink())
	case "rotate":
		return rotateChild(ctx, sp, childProbeLink())
	case "serve":
		return serveChild(ctx, sp, childProbeLink())
	}
	return nil, fmt.Errorf("unknown child role %q", sp.Role)
}

// spawn runs sp in a fresh child process of this binary and decodes the
// JSON result it prints into out. The child's stderr passes through. With
// a prober, the child is a repetition child: it gets the probe pipes, and
// pr answers its requests while it runs.
func spawn(ctx context.Context, sp spec, out any, pr *prober) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("bench: locating own binary: %w", err)
	}
	raw, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "GOMAXPROCS="+strconv.Itoa(nproc))
	if sp.Role == "workload" {
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 10 * time.Second
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	var serveErr error
	if pr == nil {
		err = cmd.Run()
	} else {
		err, serveErr = runProbed(cmd, pr)
	}
	if err != nil {
		return fmt.Errorf("bench: %s child for %s: %w", sp.Role, sp.Workload, err)
	}
	if serveErr != nil {
		return serveErr
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("bench: decoding %s child result: %w", sp.Role, err)
	}
	return nil
}

// runProbed runs cmd with the probe pipes as its extra files 3 (requests,
// written by the child) and 4 (answers, read by the child), and serves its
// probe requests until it exits.
func runProbed(cmd *exec.Cmd, pr *prober) (runErr, serveErr error) {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return err, nil
	}
	defer reqR.Close()
	respR, respW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return err, nil
	}
	cmd.ExtraFiles = []*os.File{reqW, respR}
	err = cmd.Start()
	// The child holds its own copies now; the parent's must go, or the
	// request pipe would never report EOF.
	reqW.Close()
	respR.Close()
	if err != nil {
		respW.Close()
		return err, nil
	}
	served := make(chan error, 1)
	go func() { served <- pr.serve(reqR, respW) }()
	runErr = cmd.Wait()
	return runErr, <-served
}

// Check is one correctness check's outcome.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func check(name string, ok bool, format string, args ...any) Check {
	return Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// Result is one run of one workload, as its child reports it.
type Result struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Ops counts the operations the workload issued and OpsFailed those that
	// failed: 5xx, malformed bodies, transport errors, retried fetches.
	Ops       int     `json:"ops"`
	OpsFailed int     `json:"ops_failed"`
	Reps      int     `json:"reps"`
	Checks    []Check `json:"checks"`
	// Metrics holds the end-to-end metrics, each with its samples' summary;
	// the metric's value is the median.
	Metrics map[string]Summary `json:"metrics"`
	// Detail holds the workload's own headline numbers.
	Detail map[string]float64 `json:"detail"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Spans are one repetition's recorded spans (traced runs only).
	Spans []Span `json:"spans,omitempty"`
	// InputsS is the time spent generating the workload's inputs, and
	// DurationS the child's whole wall time.
	InputsS   float64      `json:"inputs_s"`
	DurationS float64      `json:"duration_s"`
	Years     []yearStat   `json:"years,omitempty"`
	Ladder    []ladderStep `json:"ladder,omitempty"`
}

func newResult(sp spec) *Result {
	return &Result{
		Workload: sp.Workload,
		Traced:   sp.Trace,
		Metrics:  make(map[string]Summary),
		Detail:   make(map[string]float64),
		Layers:   make(map[string]float64),
	}
}

// finish derives Correct from the checks and the failure count.
func (r *Result) finish(start time.Time) {
	r.Correct = r.OpsFailed == 0
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
		}
	}
	r.DurationS = time.Since(start).Seconds()
	if !r.Traced {
		r.Layers = nil
	}
}

// Value is a metric's reported value: its samples' median.
func (r *Result) Value(name string) (float64, bool) {
	s, ok := r.Metrics[name]
	return s.Median, ok && s.N > 0
}

// RunWorkload runs one workload in a fresh child process and returns its
// result. A traced run arms the timing wrappers and reports per-layer
// metrics; its end-to-end numbers carry the wrappers' cost.
func RunWorkload(ctx context.Context, opts Options, workload string, traced bool) (*Result, error) {
	if !slices.Contains(Workloads, workload) {
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", workload, Workloads)
	}
	if opts.Seconds <= 0 {
		return nil, errors.New("bench: seconds must be positive")
	}
	sp := spec{
		Role:     "workload",
		Workload: workload,
		Seed:     opts.Seed,
		Seconds:  opts.Seconds,
		Trace:    traced,
		Config:   opts.Config,
		WorkDir:  opts.WorkDir,
	}
	var res Result
	if err := spawn(ctx, sp, &res, nil); err != nil {
		return nil, err
	}
	return &res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
