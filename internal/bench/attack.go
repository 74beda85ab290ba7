package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"time"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/experiments"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

// The attack-hs1 sizing pins: at seed 2013 the HS1 enhanced attack makes
// 2561 logical requests and finds 296 students at t=400 with filtering.
const (
	hs1PinSeed     = 2013
	hs1PinRequests = 2561
	hs1PinFound400 = 296
)

// rawAttackWall names the samples of the attack wall as measured.
const rawAttackWall = "attack_wall_ms"

// coreSteps are core.RunContext's methodology step spans.
var coreSteps = []string{
	"lookup-school", "collect-seeds", "extract-core", "harvest-and-score",
	"enhanced-promote", "re-harvest", "window-profiles",
}

var fetchKinds = []string{"search", "profile", "friends"}

func attackScenario(name string) (experiments.Scenario, error) {
	switch name {
	case "hs1":
		return experiments.HS1(), nil
	case "tiny":
		return experiments.Tiny(), nil
	}
	return experiments.Scenario{}, fmt.Errorf("unknown attack scenario %q", name)
}

// resultDigest hashes what an attack run decided: the effort tally and the
// ranked list with its hits and filter verdicts.
func resultDigest(r *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "effort %+v\n", r.Effort)
	for _, c := range r.Ranked {
		fmt.Fprintf(h, "%s %v %t %s\n", c.ID, c.Hits, c.Filtered, c.FilterReason)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// server is an osnhttp.Server on a loopback listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// startServer serves the platform on a fresh loopback port; with a recorder
// the handler is tapped.
func startServer(p *osn.Platform, rec *Recorder) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	var h http.Handler = osnhttp.NewServer(p)
	if rec != nil {
		h = tapHandler{inner: h, rec: rec}
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Close stops the server and waits for its serve loop to exit.
func (s *server) Close() {
	s.srv.Close()
	<-s.done
}

// newHTTPClient returns a client holding at most nproc connections; with a
// recorder its round trips are tapped.
func newHTTPClient(rec *Recorder) *http.Client {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, MaxIdleConns: nproc}
	if rec == nil {
		return &http.Client{Transport: tr}
	}
	return &http.Client{Transport: tapTransport{inner: tr, rec: rec}}
}

// attackRun is one timed attack.
type attackRun struct {
	setup, wall, platformBuild time.Duration
	res                        *core.Result
	before, after              rtSample
	rec                        *Recorder
	cache                      *cache.Cache
	platform                   *osn.Platform
}

// attackOnce builds a fresh platform, server and HTML client, then times
// core.RunContext alone. Traced, the session's client is an explicit
// fetch cache over the tapped client (so RunContext adds none of its own)
// and the context carries an obs trace whose step spans the recorder
// times.
func attackOnce(ctx context.Context, world *worldgen.World, sc experiments.Scenario, params core.Params, traced bool) (attackRun, error) {
	var run attackRun
	if traced {
		run.rec = NewRecorder()
	}
	t0 := time.Now()
	run.platform = osn.NewPlatform(world, osn.Facebook(), osn.Config{SearchPerAccount: sc.SearchPerAccount})
	run.platformBuild = time.Since(t0)
	srv, err := startServer(run.platform, run.rec)
	if err != nil {
		return run, err
	}
	defer srv.Close()
	hc := newHTTPClient(run.rec)
	defer hc.CloseIdleConnections()
	client := osnhttp.NewClient(srv.url, hc, nil)
	if err := client.RegisterAccounts(sc.SeedAccounts); err != nil {
		return run, fmt.Errorf("registering accounts: %w", err)
	}
	var cc crawler.Client = client
	runCtx := ctx
	if traced {
		run.cache = cache.New(tapClient{inner: client, rec: run.rec})
		cc = run.cache
		tr := obs.NewTrace("attack")
		tr.OnStart = func(s *obs.Span) {
			if s.Depth() == 1 {
				run.rec.stepStart(s, s.Name())
			}
		}
		tr.OnEnd = func(s *obs.Span) {
			if s.Depth() == 1 {
				run.rec.stepEnd(s)
			}
		}
		runCtx = tr.Context(ctx)
	}
	sess := crawler.NewSession(cc)
	run.setup = time.Since(t0)
	run.before = readRuntime()
	start := time.Now()
	run.res, err = core.RunContext(runCtx, sess, params)
	run.wall = time.Since(start)
	run.after = readRuntime()
	if err != nil {
		return run, fmt.Errorf("attack: %w", err)
	}
	if traced {
		run.rec.step("RunContext", interval{start: start, end: start.Add(run.wall)})
	}
	return run, nil
}

// attackLayers accumulates the traced per-layer numbers across attacks.
type attackLayers struct {
	perRun                 map[string][]float64 // medians over attacks
	parse, wire, handler   map[string][]float64 // pooled µs samples by kind
	calls, joined, brokenJ int
	spans                  []Span
}

func newAttackLayers() *attackLayers {
	return &attackLayers{
		perRun:  make(map[string][]float64),
		parse:   make(map[string][]float64),
		wire:    make(map[string][]float64),
		handler: make(map[string][]float64),
	}
}

// add folds one traced attack into the accumulators.
func (l *attackLayers) add(run attackRun, sc experiments.Scenario) {
	steps := run.rec.stepList()
	calls := run.rec.callIntervals()
	var stepSum, self time.Duration
	byStep := make(map[string]time.Duration)
	for _, s := range steps {
		if s.name == "RunContext" {
			continue
		}
		byStep[s.name] += s.iv.dur()
		stepSum += s.iv.dur()
		self += selfTime(s.iv, calls)
	}
	for _, name := range coreSteps {
		l.perRun["core.step_ms."+name] = append(l.perRun["core.step_ms."+name], ms(byStep[name]))
	}
	l.perRun["core.self_ms"] = append(l.perRun["core.self_ms"], ms(self))
	l.perRun["core.attributed_pct"] = append(l.perRun["core.attributed_pct"], 100*stepSum.Seconds()/run.wall.Seconds())
	l.perRun["core.residual_ms"] = append(l.perRun["core.residual_ms"], ms(run.wall-stepSum))

	fs, js := run.rec.fetches()
	l.calls += js.Calls
	l.joined += js.Joined
	l.brokenJ += js.Unjoined + js.Negative
	count := make(map[string]float64)
	for _, f := range fs {
		count[f.kind]++
		l.parse[f.kind] = append(l.parse[f.kind], us(f.parse))
		l.wire[f.kind] = append(l.wire[f.kind], us(f.wire))
		l.handler[f.kind] = append(l.handler[f.kind], us(f.h))
	}
	for _, k := range fetchKinds {
		l.perRun["crawler.calls."+k] = append(l.perRun["crawler.calls."+k], count[k])
	}
	st := run.cache.Stats()
	hits, misses := st.Hits.Total(), st.Misses.Total()
	if hits+misses > 0 {
		l.perRun["crawler.cache_hit_pct"] = append(l.perRun["crawler.cache_hit_pct"], 100*float64(hits)/float64(hits+misses))
	}
	l.perRun["crawler.logical_requests"] = append(l.perRun["crawler.logical_requests"], float64(run.res.Effort.Total()))
	l.perRun["osn.platform_build_ms"] = append(l.perRun["osn.platform_build_ms"], ms(run.platformBuild))

	// Scoring cost for reports, outside the timed attack: the ground truth
	// and Select+Evaluate at the scenario's table thresholds.
	t := time.Now()
	gt := eval.NewGroundTruth(run.platform, 0)
	l.perRun["eval.truth_build_ms"] = append(l.perRun["eval.truth_build_ms"], ms(time.Since(t)))
	t = time.Now()
	for _, th := range sc.TableThresholds {
		gt.Evaluate(run.res.Select(th, false))
		gt.Evaluate(run.res.Select(th, true))
	}
	l.perRun["eval.evaluate_ms"] = append(l.perRun["eval.evaluate_ms"], ms(time.Since(t)))
	l.spans = run.rec.Spans(maxSpanCalls)
}

// maxSpanCalls caps the client calls one span dump holds.
const maxSpanCalls = 5000

// report writes the per-layer metrics: medians over attacks, and pooled
// p50/tail for the per-fetch layers.
func (l *attackLayers) report(into map[string]float64) {
	for name, v := range l.perRun {
		into[name] = median(v)
	}
	fetchLayers(into, l.parse, l.wire, l.handler)
}

// fetchLayers writes osnhttp.{client_parse,wire,handler}_us.<kind>.{p50,tail}.
func fetchLayers(into map[string]float64, parse, wire, handler map[string][]float64) {
	for _, k := range fetchKinds {
		for layer, samples := range map[string][]float64{
			"client_parse_us": parse[k], "wire_us": wire[k], "handler_us": handler[k],
		} {
			s := Summarize(samples)
			into["osnhttp."+layer+"."+k+".p50"] = s.Median
			into["osnhttp."+layer+"."+k+".tail"] = s.Tail
		}
	}
}

// runAttack is the parent side of attack-hs1: it runs the attacks in one
// fresh child and times the probe that child asks for before each attack.
func runAttack(ctx context.Context, sp spec) (*Result, error) {
	begin := time.Now()
	res := newResult(sp)
	child := sp
	child.Role = "attack"
	r := newRep()
	if err := spawn(ctx, child, r, newProber()); err != nil {
		return nil, err
	}
	res.InputsS = r.Values["inputs_s"]
	for _, k := range []string{"logical_requests", "found_at_400_filtered"} {
		res.Detail[k] = r.Values[k]
	}
	aggregateReps(res, []*repResult{r})
	res.finish(begin)
	return res, nil
}

// attackChild runs sequential enhanced attacks over the HTML wire against
// the HS1 world of its seed, each against a fresh platform, server and
// client, and checks each against an in-process reference run. Before each
// attack it has its parent time one probe pass.
func attackChild(ctx context.Context, sp spec, link *probeLink) (*repResult, error) {
	r := newRep()
	sc, err := attackScenario(sp.Config.AttackScenario)
	if err != nil {
		return nil, err
	}
	sc.Seed = sp.Seed
	t := time.Now()
	world, err := worldgen.Generate(sc.Config, sc.Seed)
	if err != nil {
		return nil, err
	}
	r.Values["inputs_s"] = time.Since(t).Seconds()
	params := core.Params{
		SchoolName:   world.Schools[0].Name,
		CurrentYear:  sc.CurrentYear(),
		Mode:         core.Enhanced,
		MaxThreshold: sc.MaxThreshold,
		Workers:      nproc,
	}

	// The in-process reference every timed attack must reproduce.
	refPlat := osn.NewPlatform(world, osn.Facebook(), osn.Config{SearchPerAccount: sc.SearchPerAccount})
	direct, err := crawler.NewDirect(refPlat, sc.SeedAccounts)
	if err != nil {
		return nil, err
	}
	ref, err := core.RunContext(ctx, crawler.NewSession(direct), params)
	if err != nil {
		return nil, fmt.Errorf("reference attack: %w", err)
	}
	refDigest := resultDigest(ref)
	found400 := eval.NewGroundTruth(refPlat, 0).Evaluate(ref.Select(400, true)).Found
	r.Values["logical_requests"] = float64(ref.Effort.Total())
	r.Values["found_at_400_filtered"] = float64(found400)
	if sp.Config.AttackScenario == "hs1" && sp.Seed == hs1PinSeed {
		r.Checks = append(r.Checks,
			check("hs1-logical-requests", ref.Effort.Total() == hs1PinRequests, "%d logical requests, want %d", ref.Effort.Total(), hs1PinRequests),
			check("hs1-found-at-400", found400 == hs1PinFound400, "found@400 filtered %d, want %d", found400, hs1PinFound400))
	}

	var win rtWindow
	layers := newAttackLayers()
	mismatches := 0
	var probes []float64
	start := time.Now()
	n := 0
	for ; sp.Config.Attacks.more(n, time.Since(start), sp.budget()); n++ {
		probe, err := link.ask(1)
		if err != nil {
			return nil, err
		}
		probes = append(probes, ms(probe))
		run, err := attackOnce(ctx, world, sc, params, sp.Trace)
		if err != nil {
			return nil, fmt.Errorf("attack %d: %w", n, err)
		}
		// The worlds of different seeds need from ~2000 to ~2800 logical
		// requests, and the wall grows with them along a line that passes
		// near zero (README.md, Sizing). op_ms is the wall per attack at the
		// calibrated world's 2561 requests, so the seed picks the inputs
		// without setting the metric's scale; at seed 2013 the factor is 1.
		// The wall as measured is kept too.
		reqs := float64(run.res.Effort.Total())
		record(r.Samples, MetricOp, ms(run.wall)*hs1PinRequests/reqs, probe)
		record(r.Samples, MetricSetup, run.setup.Seconds(), probe)
		record(r.Samples, MetricGoodput, reqs/run.wall.Seconds(), probe)
		r.Samples[rawAttackWall] = append(r.Samples[rawAttackWall], ms(run.wall))
		win.add(run.before, run.after)
		r.Ops += run.res.Effort.Total()
		r.Failed += run.res.Retries.Total() + run.res.Failures.Total()
		layers.perRun["crawler.retries"] = append(layers.perRun["crawler.retries"], float64(run.res.Retries.Total()))
		layers.perRun["crawler.failures"] = append(layers.perRun["crawler.failures"], float64(run.res.Failures.Total()))
		if resultDigest(run.res) != refDigest {
			mismatches++
		}
		if sp.Trace {
			layers.add(run, sc)
		}
	}
	r.Values["probe_ms"] = median(probes)
	r.Checks = append(r.Checks, check("attack-digest", mismatches == 0,
		"%d of %d attacks diverged from the in-process reference", mismatches, n))
	if r.RSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if sp.Trace {
		layers.report(r.Layers)
		win.layers(r.Layers)
		r.Spans = layers.spans
		r.Checks = append(r.Checks,
			check("trace-join", layers.brokenJ == 0 && layers.joined == layers.calls,
				"%d of %d client calls joined to their round trip and handler", layers.joined, layers.calls),
			check("trace-coverage", r.Layers["core.attributed_pct"] >= 95,
				"step spans cover %.1f%% of RunContext wall, residual %.2f ms",
				r.Layers["core.attributed_pct"], r.Layers["core.residual_ms"]))
	}
	return r, nil
}
