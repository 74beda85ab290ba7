package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/loadgen"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

// rotateYears are the years rotate-metro times. Year 1 is warm-up (it
// allocates the evolver's patch scratch); the deltas shrink every year and
// new edges reach zero by year 6 on the sizing world, so later years would
// time nothing.
const (
	rotateFirst = 2
	rotateLast  = 5
)

// yearStat is one evolve-and-publish step of a rotation.
type yearStat struct {
	Year          int     `json:"year"`
	Added         int     `json:"added"`
	Removed       int     `json:"removed"`
	Incremental   bool    `json:"incremental"`
	StepMS        float64 `json:"step_ms"`
	PatchMS       float64 `json:"patch_ms"`
	DirtyRows     int     `json:"dirty_rows"`
	BuildMS       float64 `json:"build_ms"`
	ProfilesMS    float64 `json:"profiles_ms"`
	IndexesMS     float64 `json:"indexes_ms"`
	SwapUS        float64 `json:"swap_us"`
	DirtyProfiles int     `json:"dirty_profiles"`
}

// ladderStep is one rate of serve-metro's open-loop ladder.
type ladderStep struct {
	Rate       float64 `json:"rate"`
	OnTimePct  float64 `json:"on_time_pct"`
	DroppedPct float64 `json:"dropped_pct"`
	Failed     int     `json:"failed"`
	LagP50US   float64 `json:"lag_p50_us"`
	LagTailUS  float64 `json:"lag_tail_us"`
}

// repResult is what one repetition child reports.
type repResult struct {
	// Samples holds the child's samples of the end-to-end metrics, by
	// metric name, probe-scaled, and as measured under "raw_" names (see
	// record); peak RSS is one sample per child.
	Samples map[string][]float64 `json:"samples"`
	RSSMB   float64              `json:"rss_mb"`
	// Values holds the child's workload-specific numbers.
	Values map[string]float64 `json:"values"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Ops    int                `json:"ops"`
	Failed int                `json:"failed"`
	Checks []Check            `json:"checks"`
	Spans  []Span             `json:"spans,omitempty"`
	Years  []yearStat         `json:"years,omitempty"`
	Ladder []ladderStep       `json:"ladder,omitempty"`
}

func newRep() *repResult {
	return &repResult{Samples: make(map[string][]float64), Values: make(map[string]float64), Layers: make(map[string]float64)}
}

// pickSchools draws k distinct school IDs from the world with the seed.
func pickSchools(w *worldgen.World, seed uint64, k int) []int {
	ids := make([]int, len(w.Schools))
	for i, s := range w.Schools {
		ids[i] = s.ID
	}
	rng := sim.New(seed).Stream("bench/schools")
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if k > len(ids) {
		k = len(ids)
	}
	out := ids[:k]
	sort.Ints(out)
	return out
}

// metroSchoolsPicked is how many schools the read mix and the cold start's
// first search draw from.
const metroSchoolsPicked = 8

// runMetro is the parent side of the three metro workloads: it generates
// the world once, writes the snapshot the repetitions load, and runs each
// repetition in a fresh child.
func runMetro(ctx context.Context, sp spec) (*Result, error) {
	begin := time.Now()
	res := newResult(sp)
	cfg := sp.Config
	t := time.Now()
	world, err := worldgen.GenerateParallel(worldgen.MetroConfig(cfg.MetroSchools), sp.Seed, nproc)
	if err != nil {
		return nil, err
	}
	fp, err := world.Fingerprint()
	if err != nil {
		return nil, err
	}
	res.InputsS = time.Since(t).Seconds()
	schools := pickSchools(world, sp.Seed, metroSchoolsPicked)
	dir, err := os.MkdirTemp(sp.WorkDir, "metro-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// coldstart-metro's set-up is the snapshot write, sampled several times,
	// each after a probe; the others write once, and their set-up is
	// measured in each child.
	pr := newProber()
	writes := 1
	if sp.Workload == ColdstartMetro {
		writes = snapshotWrites
	}
	var paths []string
	setup := make(map[string][]float64)
	for i := 0; i < writes; i++ {
		var probe time.Duration
		if sp.Workload == ColdstartMetro {
			if probe, err = pr.speed(3); err != nil {
				return nil, err
			}
		}
		path := filepath.Join(dir, "world-"+strconv.Itoa(i)+".snap")
		t := time.Now()
		if err := world.WriteFile(path, worldgen.FormatBinary); err != nil {
			return nil, err
		}
		record(setup, MetricSetup, time.Since(t).Seconds(), probe)
		paths = append(paths, path)
	}
	res.Detail["snapshot_write_s"] = median(setup["raw_"+MetricSetup])
	// The children load their own copy; free the parent's before they run.
	world = nil
	runtime.GC()
	debug.FreeOSMemory()

	child := spec{
		Workload:    sp.Workload,
		Seed:        sp.Seed,
		Trace:       sp.Trace,
		Config:      cfg,
		WorkDir:     sp.WorkDir,
		Fingerprint: fp,
		Schools:     schools,
	}
	reps := []*repResult{}
	add := func() error {
		r := newRep()
		if err := spawn(ctx, child, r, pr); err != nil {
			return err
		}
		reps = append(reps, r)
		return nil
	}
	start := time.Now()
	switch sp.Workload {
	case ColdstartMetro:
		child.Role = "coldstart"
		for i := 0; cfg.ColdChildren.more(i, time.Since(start), sp.budget()); i++ {
			child.Snapshot = paths[i%len(paths)]
			if err := add(); err != nil {
				return nil, err
			}
		}
	case RotateMetro:
		child.Role, child.Snapshot = "rotate", paths[0]
		for i := 0; cfg.RotateReps.more(i, time.Since(start), sp.budget()); i++ {
			if err := add(); err != nil {
				return nil, err
			}
		}
	case ServeMetro:
		// Closed-loop throughput settles into a different steady state in
		// each process, so several short closed-loop children beat one long
		// one; the ladder needs long steps and gets a child of its own.
		child.Role, child.Snapshot = "serve", paths[0]
		child.Seconds = sp.Seconds * 0.6 / float64(cfg.ServeChildren)
		for i := 0; i < cfg.ServeChildren; i++ {
			if err := add(); err != nil {
				return nil, err
			}
		}
		child.Ladder, child.Seconds = true, sp.Seconds*0.4
		if err := add(); err != nil {
			return nil, err
		}
	}
	if sp.Workload == ColdstartMetro {
		// Its set-up is the parent's snapshot writes.
		reps = append(reps, &repResult{Samples: setup})
	}
	aggregateReps(res, reps)
	res.finish(begin)
	return res, nil
}

// aggregateReps folds the repetitions into the workload result. The
// end-to-end metrics pool the children's probe-scaled samples, and the
// detail keeps the medians as measured; the per-layer metrics take the
// median across children. A repetition without a peak RSS
// (coldstart-metro's snapshot writes) only contributes samples.
func aggregateReps(res *Result, reps []*repResult) {
	pooled := make(map[string][]float64)
	var rss, probes []float64
	layerSamples := make(map[string][]float64)
	for i, r := range reps {
		for k, v := range r.Samples {
			pooled[k] = append(pooled[k], v...)
		}
		if r.RSSMB == 0 {
			continue
		}
		probes = append(probes, r.Values["probe_ms"])
		res.Reps++
		rss = append(rss, r.RSSMB)
		res.Ops += r.Ops
		res.OpsFailed += r.Failed
		for _, c := range r.Checks {
			c.Name = fmt.Sprintf("rep%d/%s", i, c.Name)
			res.Checks = append(res.Checks, c)
		}
		for k, v := range r.Layers {
			layerSamples[k] = append(layerSamples[k], v)
		}
		res.Ladder = append(res.Ladder, r.Ladder...)
		// The last repetition's spans and years stand for the run.
		res.Spans, res.Years = r.Spans, r.Years
	}
	for k, v := range layerSamples {
		res.Layers[k] = median(v)
	}
	res.Detail["probe_ms"] = median(probes)
	for _, m := range []string{MetricSetup, MetricOp, MetricGoodput} {
		res.Metrics[m] = Summarize(pooled[m])
		res.Detail["raw_"+m] = median(pooled["raw_"+m])
	}
	res.Metrics[MetricRSS] = Summarize(rss)
	switch res.Workload {
	case AttackHS1:
		wall := Summarize(pooled[rawAttackWall])
		res.Detail["attack_wall_ms"] = wall.Median
		res.Detail["attack_wall_tail_ms"] = wall.Tail
		res.Detail["attack_wall_tail_pct"] = wall.TailPct
	case ColdstartMetro:
		res.Detail["coldstart_ms"] = res.Detail["raw_"+MetricOp]
	case RotateMetro:
		res.Detail["rotate_epochs_ms"] = res.Detail["raw_"+MetricOp]
		var ontime []float64
		for _, r := range reps {
			ontime = append(ontime, r.Values["ontime_pct"])
		}
		res.Metrics[MetricReadOnTime] = Summarize(ontime)
		// Evolution is a pure function of (world, epoch): every repetition
		// must see the same deltas.
		same := true
		for _, r := range reps[1:] {
			same = same && deltasEqual(r.Years, reps[0].Years)
		}
		res.Checks = append(res.Checks, check("rotate-deltas-repeat", same,
			"per-year |Added|/|Removed| equal across %d repetitions", len(reps)))
	case ServeMetro:
		lat := Summarize(pooled[serveLatency])
		res.Detail["serve_closed_rps"] = median(pooled["raw_"+MetricGoodput])
		res.Detail["serve_closed_p50_us"] = lat.Median * 1e3
		res.Detail["serve_closed_tail_us"] = lat.Tail * 1e3
		res.Detail["serve_closed_tail_pct"] = lat.TailPct
		for _, r := range reps {
			if len(r.Ladder) > 0 {
				res.Detail["serve_max_rps"] = r.Values["max_rps"]
			}
		}
	}
}

func deltasEqual(a, b []yearStat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Year != b[i].Year || a[i].Added != b[i].Added || a[i].Removed != b[i].Removed {
			return false
		}
	}
	return true
}

// metroEnv is one metro child's serving stack: the loaded world, the
// platform, a loopback server and a JSON client.
type metroEnv struct {
	world    *worldgen.World
	platform *osn.Platform
	srv      *server
	hc       *http.Client
	json     *osnhttp.JSONClient
	client   crawler.Client // json, tapped when traced
	rec      *Recorder
	// decode and build time the snapshot load and the platform build;
	// listened is when the server started listening.
	decode, build time.Duration
	listened      time.Time
	afterDecode   rtSample
}

// openMetro loads the snapshot, builds the platform, serves it on
// loopback and registers the given number of accounts over /api/v1.
func openMetro(sp spec, accounts int) (*metroEnv, error) {
	env := &metroEnv{}
	if sp.Trace {
		env.rec = NewRecorder()
	}
	t := time.Now()
	w, err := worldgen.ReadSnapshotFile(sp.Snapshot)
	if err != nil {
		return nil, err
	}
	env.decode = time.Since(t)
	env.afterDecode = readRuntime()
	env.world = w
	env.span("worldgen.ReadSnapshotFile", t)
	t = time.Now()
	env.platform = osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	env.build = time.Since(t)
	env.span("osn.NewPlatform", t)
	env.srv, err = startServer(env.platform, env.rec)
	if err != nil {
		return nil, err
	}
	env.listened = time.Now()
	env.hc = newHTTPClient(env.rec)
	env.json = osnhttp.NewJSONClient(env.srv.url, env.hc, nil).WithSeed(sp.Seed)
	env.client = env.json
	if env.rec != nil {
		env.client = tapClient{inner: env.json, rec: env.rec}
	}
	if err := env.json.RegisterAccounts(accounts); err != nil {
		env.close()
		return nil, fmt.Errorf("registering accounts: %w", err)
	}
	return env, nil
}

// span records a step from start to now when the run is traced.
func (e *metroEnv) span(name string, start time.Time) {
	if e.rec != nil {
		e.rec.step(name, interval{start: start, end: time.Now()})
	}
}

func (e *metroEnv) close() {
	e.hc.CloseIdleConnections()
	e.srv.Close()
}

// loadLayers records the snapshot load, the runtime state after it, and
// the platform build.
func (e *metroEnv) loadLayers(into map[string]float64) {
	into["worldgen.snapshot_decode_ms"] = ms(e.decode)
	into["runtime.heap_objects"] = float64(e.afterDecode.objects)
	into["runtime.gc_cycles"] = float64(e.afterDecode.gcCycles)
	into["osn.platform_build_ms"] = ms(e.build)
}

// fetchLayers writes the per-fetch layer metrics of the env's recorder.
func (e *metroEnv) fetchLayers(into map[string]float64, r *repResult) {
	if e.rec == nil {
		return
	}
	parse, wire, handler := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	fs, js := e.rec.fetches()
	for _, f := range fs {
		parse[f.kind] = append(parse[f.kind], us(f.parse))
		wire[f.kind] = append(wire[f.kind], us(f.wire))
		handler[f.kind] = append(handler[f.kind], us(f.h))
	}
	fetchLayers(into, parse, wire, handler)
	r.Checks = append(r.Checks, check("trace-join", js.Joined == js.Calls,
		"%d of %d client calls joined to their round trip and handler", js.Joined, js.Calls))
	r.Spans = e.rec.Spans(maxSpanCalls)
}

// coldstartChild times one cold start: snapshot file to the first search
// page served over /api/v1.
func coldstartChild(ctx context.Context, sp spec, link *probeLink) (*repResult, error) {
	r := newRep()
	before, err := link.side()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	env, err := openMetro(sp, 1)
	if err != nil {
		return nil, err
	}
	defer env.close()
	school := sp.Schools[0]
	results, _, err := env.client.Search(0, school, 0)
	cold := time.Since(start)
	firstReq := time.Since(env.listened)
	r.Ops = 1
	if err != nil {
		r.Failed = 1
		r.Checks = append(r.Checks, check("first-search", false, "%v", err))
	} else {
		r.Checks = append(r.Checks, searchCheck(env, school, results))
	}
	// The peak is read before the fingerprint check, whose buffers are the
	// benchmark's, not the cold start's.
	if r.RSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	after, err := link.side()
	if err != nil {
		return nil, err
	}
	probe := (before + after) / 2
	r.Values["probe_ms"] = ms(probe)
	record(r.Samples, MetricOp, ms(cold), probe)
	record(r.Samples, MetricGoodput, 1/cold.Seconds(), probe)
	env.loadLayers(r.Layers)
	r.Layers["osnhttp.first_request_ms"] = ms(firstReq)
	env.fetchLayers(r.Layers, r)
	fp, err := env.world.Fingerprint()
	if err != nil {
		return nil, err
	}
	r.Checks = append(r.Checks, check("fingerprint", fp == sp.Fingerprint, "loaded world %.12s, generated %.12s", fp, sp.Fingerprint))
	return r, nil
}

// searchCheck verifies a first search page: non-empty, and every result a
// person of the searched school.
func searchCheck(env *metroEnv, school int, results []osn.SearchResult) Check {
	bad := 0
	for _, res := range results {
		uid, ok := env.platform.UserIDOf(res.ID)
		if !ok || env.world.People[uid].SchoolID != school {
			bad++
		}
	}
	return check("first-search", len(results) > 0 && bad == 0,
		"%d results for school %d, %d not of that school", len(results), school, bad)
}

// newReadPlan builds the read mix over the picked schools: search pages of
// those schools, and profiles and friend lists of their account holders.
func newReadPlan(sp spec, env *metroEnv) (*readPlan, error) {
	pl := &readPlan{
		seed:     sp.Seed,
		mix:      loadgen.DefaultMix(),
		accounts: readAccounts,
		schools:  sp.Schools,
		pages:    3,
	}
	picked := make(map[int]bool, len(sp.Schools))
	for _, s := range sp.Schools {
		picked[s] = true
	}
	var pool []osn.PublicID
	for _, p := range env.world.People {
		if p.HasAccount && picked[p.SchoolID] {
			if id, ok := env.platform.PublicIDOf(p.ID); ok {
				pool = append(pool, id)
			}
		}
	}
	if len(pool) == 0 {
		return nil, errors.New("no account holders in the picked schools")
	}
	rng := sim.New(sp.Seed).Stream("bench/targets")
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > readTargets {
		pool = pool[:readTargets]
	}
	pl.targets = pool
	return pl, nil
}

// verifyReads replays a sample of the mix over the wire and compares each
// answer with the platform's own, read through a verifier account: the JSON
// wire must deliver exactly what the platform serves. Searches, whose
// per-account views differ, are checked for school membership instead.
func verifyReads(env *metroEnv, pl *readPlan, n int) Check {
	tok, err := env.platform.RegisterAccount("verifier", sim.Date{Year: 1985, Month: 1, Day: 1})
	if err != nil {
		return check("reads-verified", false, "registering verifier: %v", err)
	}
	bad := 0
	var first string
	fail := func(format string, args ...any) {
		bad++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for i := uint64(0); i < uint64(n); i++ {
		q := pl.pick(1<<62 + i)
		switch q.kind {
		case 0:
			got, _, err := env.json.Search(q.acct, q.school, q.page)
			if err != nil {
				fail("search %d/%d: %v", q.school, q.page, err)
				continue
			}
			if c := searchCheck(env, q.school, got); !c.OK && len(got) > 0 {
				fail("search %d/%d: %s", q.school, q.page, c.Detail)
			}
		case 1:
			got, gerr := env.json.Profile(q.acct, q.target)
			want, werr := env.platform.Profile(tok, q.target)
			if !sameOutcome(gerr, werr) || (gerr == nil && !reflect.DeepEqual(got, want)) {
				fail("profile %s: wire %v/%v, platform %v/%v", q.target, got, gerr, want, werr)
			}
		default:
			got, gmore, gerr := env.json.FriendPage(q.acct, q.target, q.page)
			want, wmore, werr := env.platform.FriendPage(tok, q.target, q.page)
			if !sameOutcome(gerr, werr) || gmore != wmore || (gerr == nil && !sameFriends(got, want)) {
				fail("friends %s/%d differ (wire err %v, platform err %v)", q.target, q.page, gerr, werr)
			}
		}
	}
	return check("reads-verified", bad == 0, "%d of %d sampled reads differ from the platform; first: %s", bad, n, first)
}

func sameOutcome(a, b error) bool {
	for _, e := range []error{osn.ErrHidden, osn.ErrNotFound} {
		if errors.Is(a, e) != errors.Is(b, e) {
			return false
		}
	}
	return (a == nil) == (b == nil)
}

func sameFriends(a, b []osn.FriendRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prime issues a few reads before timing so connections and the
// platform's per-account views exist.
func prime(env *metroEnv, pl *readPlan) {
	for i := uint64(0); i < 64; i++ {
		pl.do(env.json, 1<<63+i)
	}
}

// rotateChild times years 2–5 of evolution and epoch publication under an
// open-loop read load.
func rotateChild(ctx context.Context, sp spec, link *probeLink) (*repResult, error) {
	r := newRep()
	pre, err := link.side()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	env, err := openMetro(sp, readAccounts)
	if err != nil {
		return nil, err
	}
	defer env.close()
	pl, err := newReadPlan(sp, env)
	if err != nil {
		return nil, err
	}
	prime(env, pl)
	workers := nproc - 1
	if workers < 1 {
		workers = 1
	}
	ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), workers)
	advance := func(year int) (yearStat, error) {
		t := time.Now()
		d, err := ev.Step(env.world, year)
		if err != nil {
			return yearStat{}, err
		}
		step := time.Since(t)
		env.span("worldgen.Evolver.Step", t)
		t = time.Now()
		st := env.platform.AdvanceEpochDelta(ctx, d)
		env.span("osn.AdvanceEpochDelta", t)
		patch := d.Patch.Prep + d.Patch.Copy + d.Patch.Merge
		return yearStat{
			Year: year, Added: len(d.Added), Removed: len(d.Removed), Incremental: st.Incremental,
			StepMS: ms(step), PatchMS: ms(patch), DirtyRows: d.Patch.DirtyRows,
			BuildMS: ms(st.Build), ProfilesMS: ms(st.Profiles), IndexesMS: ms(st.Indexes),
			SwapUS: us(st.Swap), DirtyProfiles: st.DirtyProfiles,
		}, nil
	}
	warm, err := advance(1)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	mid, err := link.side()
	if err != nil {
		return nil, err
	}
	// Every repetition starts its timed years at the same point of the
	// collector's cycle, not wherever set-up happened to leave it.
	runtime.GC()
	stop := make(chan struct{})
	loaded := make(chan loadResult, 1)
	before := readRuntime()
	go func() {
		loaded <- openLoop(readRate, nproc, 0, 0, stop, func(i uint64) error { return pl.do(env.client, i) })
	}()
	t := time.Now()
	var years []yearStat
	for y := rotateFirst; y <= rotateLast; y++ {
		ys, err := advance(y)
		if err != nil {
			close(stop)
			<-loaded
			return nil, err
		}
		years = append(years, ys)
	}
	wall := time.Since(t)
	close(stop)
	load := <-loaded
	var win rtWindow
	win.add(before, readRuntime())

	if r.RSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	post, err := link.side()
	if err != nil {
		return nil, err
	}
	probe := (mid + post) / 2
	r.Values["probe_ms"] = ms(probe)
	record(r.Samples, MetricSetup, setup.Seconds(), (pre+mid)/2)
	record(r.Samples, MetricOp, ms(wall), probe)
	// The offered read rate bounds this goodput, so it is not scaled.
	record(r.Samples, MetricGoodput, float64(load.OnTime)/load.Window, 0)
	r.Years = years
	r.Values["ontime_pct"] = load.OnTimePct()
	r.Ops = load.Due + len(years)
	r.Failed = load.Failed
	incremental := warm.Incremental
	for _, y := range years {
		incremental = incremental && y.Incremental
	}
	r.Checks = append(r.Checks,
		check("incremental", incremental, "every advance patched the previous epoch"),
		check("epoch-seq", env.platform.EpochSeq() == rotateLast, "epoch %d, want %d", env.platform.EpochSeq(), rotateLast),
		check("reads-ok", load.Failed == 0, "%d of %d reads failed", load.Failed, load.Due),
		verifyReads(env, pl, 48))
	if sp.Trace {
		env.loadLayers(r.Layers)
		var evolve, patch, build, profiles, indexes, swap time.Duration
		var edges, rows, dirty int
		for _, y := range years {
			evolve += msDur(y.StepMS - y.PatchMS)
			patch += msDur(y.PatchMS)
			build += msDur(y.BuildMS)
			profiles += msDur(y.ProfilesMS)
			indexes += msDur(y.IndexesMS)
			swap += time.Duration(y.SwapUS * 1e3)
			edges += y.Added + y.Removed
			rows += y.DirtyRows
			dirty += y.DirtyProfiles
		}
		r.Layers["worldgen.evolve_ms"] = ms(evolve)
		r.Layers["worldgen.delta_edges"] = float64(edges)
		r.Layers["socialgraph.csr_patch_ms"] = ms(patch)
		r.Layers["socialgraph.dirty_rows"] = float64(rows)
		r.Layers["osn.epoch_build_ms"] = ms(build)
		r.Layers["osn.epoch_profiles_ms"] = ms(profiles)
		r.Layers["osn.epoch_indexes_ms"] = ms(indexes)
		r.Layers["osn.epoch_swap_us"] = us(swap)
		r.Layers["osn.dirty_profiles"] = float64(dirty)
		senderLayers(r.Layers, load)
		win.layers(r.Layers)
		env.fetchLayers(r.Layers, r)
	}
	return r, nil
}

func msDur(v float64) time.Duration { return time.Duration(v * 1e6) }

// senderLayers writes the open-loop senders' own measurements.
func senderLayers(into map[string]float64, load loadResult) {
	lag := Summarize(load.LagUS)
	into["bench.send_lag_p50_us"] = lag.Median
	into["bench.send_lag_tail_us"] = lag.Tail
	if load.Due > 0 {
		into["bench.dropped_pct"] = 100 * float64(load.Dropped) / float64(load.Due)
	}
}

// serveLatency names the closed loop's request latencies as measured.
const serveLatency = "serve_latency_ms"

// serveSegment is how long each probe-paired closed-loop segment runs.
const serveSegment = 250 * time.Millisecond

// serveChild measures serving without rotation: either a closed loop of
// nproc clients (10% of its seconds warm-up, the rest measured in
// probe-paired segments), or an open-loop rate ladder that stops at the
// first rate missing the on-time limit.
func serveChild(ctx context.Context, sp spec, link *probeLink) (*repResult, error) {
	r := newRep()
	pre, err := link.side()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	env, err := openMetro(sp, readAccounts)
	if err != nil {
		return nil, err
	}
	defer env.close()
	pl, err := newReadPlan(sp, env)
	if err != nil {
		return nil, err
	}
	prime(env, pl)
	setup := time.Since(start)
	post, err := link.side()
	if err != nil {
		return nil, err
	}
	probe := (pre + post) / 2
	r.Values["probe_ms"] = ms(probe)
	record(r.Samples, MetricSetup, setup.Seconds(), probe)

	budget := sp.budget()
	before := readRuntime()
	phase := uint64(0)
	do := func(i uint64) error { return pl.do(env.client, phase<<40+i) }
	var ladderLoad, closed loadResult
	if !sp.Ladder {
		warm := closedLoop(nproc, 0, budget/10, do)
		r.Ops, r.Failed = warm.Sent, warm.Failed
		// The measured part is cut into segments, each paired with a probe
		// pass timed right before it, so a drift in the machine's speed
		// within the child scales the segment it hit.
		for t := time.Now(); time.Since(t) < budget*9/10; {
			segProbe, err := link.ask(1)
			if err != nil {
				return nil, err
			}
			phase++ // each segment reads on through the mix
			seg := closedLoop(nproc, 0, serveSegment, do)
			closed.merge(seg)
			r.Ops += seg.Sent
			r.Failed += seg.Failed
			record(r.Samples, MetricOp, median(seg.LatencyMS), segProbe)
			record(r.Samples, MetricGoodput, float64(seg.Due-seg.Failed)/seg.Window, segProbe)
		}
		r.Samples[serveLatency] = closed.LatencyMS
	} else {
		stepLen := budget / time.Duration(sp.Config.LadderSteps)
		rate := float64(ladderStart)
		maxOK := 0.0
		for k := 0; k < sp.Config.LadderSteps; k++ {
			phase = uint64(k + 1)
			warm := time.Duration(0)
			if k == 0 {
				warm = stepLen / 4
			}
			load := openLoop(rate, nproc, warm, stepLen, nil, do)
			ladderLoad.merge(load)
			lag := Summarize(load.LagUS)
			step := ladderStep{Rate: rate, OnTimePct: load.OnTimePct(), Failed: load.Failed, LagP50US: lag.Median, LagTailUS: lag.Tail}
			if load.Due > 0 {
				step.DroppedPct = 100 * float64(load.Dropped) / float64(load.Due)
			}
			r.Ladder = append(r.Ladder, step)
			r.Ops += load.Sent
			r.Failed += load.Failed
			if step.OnTimePct < 99 {
				break
			}
			maxOK = rate
			rate *= 1.25
		}
		r.Values["max_rps"] = maxOK
	}
	var win rtWindow
	win.add(before, readRuntime())
	if r.RSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	r.Checks = append(r.Checks,
		check("reads-ok", r.Failed == 0, "%d of %d reads failed", r.Failed, r.Ops),
		verifyReads(env, pl, 48))
	if sp.Trace {
		env.loadLayers(r.Layers)
		if sp.Ladder {
			senderLayers(r.Layers, ladderLoad)
		}
		win.layers(r.Layers)
		env.fetchLayers(r.Layers, r)
	}
	return r, nil
}
