// Command hsprofile runs the high-school profiling attack against a running
// osnd instance — the third party's side of the study.
//
// Usage:
//
//	hsprofile -url http://localhost:8080 -school "Oakfield High School" \
//	          -year 2012 -accounts 2 -mode enhanced -t 400
//
// A long crawl survives interruption: SIGINT cancels the run cleanly, the
// partial crawl is still written to -archive, and a later invocation with
// -resume pointed at that archive continues without re-fetching anything
// already collected.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osnhttp"
)

// runOutputs gathers every observability artifact of one run — the trace,
// the manifest, the metrics registry and the event log — behind a single
// idempotent flush, so the clean-exit, interrupted and fatal paths all write
// the same files. Before this existed, SIGINT lost the trace and manifest.
type runOutputs struct {
	tracePath, manifestPath, eventsPath string

	tr       *obs.Trace
	manifest *obs.Manifest
	reg      *obs.Registry
	lg       *evlog.Logger
	events   *os.File

	flushed bool
}

// newRunOutputs wires up whichever artifacts were requested. Empty paths
// leave their artifact nil (and the corresponding layers no-op).
func newRunOutputs(tracePath, manifestPath, eventsPath string) (*runOutputs, error) {
	o := &runOutputs{tracePath: tracePath, manifestPath: manifestPath, eventsPath: eventsPath}
	if manifestPath != "" || tracePath != "" {
		o.reg = obs.NewRegistry()
	}
	if tracePath != "" || manifestPath != "" {
		o.tr = obs.NewTrace("hsprofile")
	}
	if manifestPath != "" {
		o.manifest = obs.NewManifest("hsprofile")
	}
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return nil, err
		}
		o.events = f
		o.lg = evlog.New(evlog.Options{Sink: f})
	}
	return o, nil
}

// flush writes every requested artifact exactly once; later calls are
// no-ops. With dumpRing set (the interrupted and fatal paths) the flight
// recorder's last events are replayed to stderr first — the crash context.
// Errors are reported to stderr rather than fatal, so a failing flush never
// prevents the remaining artifacts from being written.
func (o *runOutputs) flush(stdout, stderr io.Writer, dumpRing bool) {
	if o == nil || o.flushed {
		return
	}
	o.flushed = true
	if dumpRing && o.lg != nil && o.lg.RingLen() > 0 {
		fmt.Fprintf(stderr, "hsprofile: flight recorder (last %d events):\n", o.lg.RingLen())
		if _, err := o.lg.DumpRing(stderr); err != nil {
			fmt.Fprintf(stderr, "hsprofile: ring dump: %v\n", err)
		}
	}
	if o.tr != nil {
		o.tr.Finish()
	}
	if o.tracePath != "" {
		out := stderr
		if o.tracePath != "-" {
			f, err := os.Create(o.tracePath)
			if err != nil {
				fmt.Fprintf(stderr, "hsprofile: trace: %v\n", err)
				out = nil
			} else {
				defer f.Close()
				out = f
			}
		}
		if out != nil {
			o.tr.WriteTree(out)
			if o.tracePath != "-" {
				fmt.Fprintf(stdout, "trace: span tree -> %s\n", o.tracePath)
			}
		}
	}
	if o.manifestPath != "" {
		o.manifest.AddTrace(o.tr)
		o.manifest.AddCounters(o.reg)
		o.manifest.AddMetrics(o.reg)
		o.manifest.Finish()
		if f, err := os.Create(o.manifestPath); err != nil {
			fmt.Fprintf(stderr, "hsprofile: manifest: %v\n", err)
		} else {
			if err := o.manifest.WriteJSON(f); err != nil {
				fmt.Fprintf(stderr, "hsprofile: manifest: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "hsprofile: manifest: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "manifest: %s\n", o.manifestPath)
			}
		}
	}
	if o.events != nil {
		if err := o.events.Close(); err != nil {
			fmt.Fprintf(stderr, "hsprofile: event log: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "events: %d logged -> %s\n", o.lg.Events(), o.eventsPath)
		}
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the attack. Cancelling ctx (main does on SIGINT or SIGTERM)
// interrupts the crawl between requests: requests already in flight finish
// (bounded by -req-timeout), no new ones start, and the archive is written
// either way, so the next -resume run continues from there. It returns the
// exit status: 0, 1 for a failure, 2 for a bad flag, 130 for an interrupt.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hsprofile", flag.ExitOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://localhost:8080", "osnd base URL")
	school := fs.String("school", "", "target high school name (required)")
	year := fs.Int("year", 2012, "current senior-class graduation year")
	accounts := fs.Int("accounts", 2, "fake accounts to register")
	mode := fs.String("mode", "enhanced", "methodology: basic, enhanced")
	threshold := fs.Int("t", 400, "selection threshold t")
	epsilon := fs.Float64("epsilon", 1, "enhanced over-fetch factor ε > 0: profiles are downloaded for the top (1+ε)·t candidates")
	filtering := fs.Bool("filter", true, "apply the Section 4.4 filters")
	pace := fs.Duration("pace", 0, "politeness delay between requests (e.g. 200ms)")
	dossiers := fs.Bool("dossiers", false, "run the Section 6 profile extension and report dossier stats")
	archive := fs.String("archive", "", "write the crawl archive (profiles + friend lists) as JSON to this file")
	resume := fs.String("resume", "", "resume from a crawl archive written by a previous (possibly interrupted) run")
	failureBudget := fs.Int("failure-budget", 0, "how many per-item fetch failures to absorb before aborting (0 = fail fast)")
	workers := fs.Int("workers", 1, "fetch workers for the attack crawl and the Section 6 dossier crawl (1 = sequential); ranked output, request counts and dossiers are identical at any setting")
	reqTimeout := fs.Duration("req-timeout", 0, "per-request timeout: an overrunning request is abandoned and retried, and an interrupted crawl waits at most this long for requests in flight (0 = unbounded)")
	traceOut := fs.String("trace-out", "", "write the run's span tree to this file (\"-\" for stderr) and show live phase progress")
	manifestOut := fs.String("manifest-out", "", "write a JSON run manifest (params, git describe, phase timings, effort counters) to this file")
	eventsOut := fs.String("events-out", "", "write the structured event log (JSONL) to this file; also arms the flight recorder dumped to stderr on interrupt")
	reqSeed := fs.Uint64("req-seed", 1, "request-id seed: every request carries a deterministic X-Osn-Request-Id derived from this seed and its path, so attacker-side wire events join to the server's access log")
	fs.Parse(args)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "hsprofile: %v\n", err)
		return 1
	}

	if err := validate(attackFlags{
		school: *school, mode: *mode, accounts: *accounts, t: *threshold, epsilon: *epsilon,
		workers: *workers, failureBudget: *failureBudget, pace: *pace, reqTimeout: *reqTimeout,
	}); err != nil {
		fmt.Fprintf(stderr, "hsprofile: %v\n", err)
		return 2
	}
	// Observability artifacts (metrics, trace, manifest, event log) exist
	// whenever their outputs are asked for; nil handles keep every layer a
	// no-op otherwise. Built before the client so registration traffic is
	// already on the wire log.
	out, err := newRunOutputs(*traceOut, *manifestOut, *eventsOut)
	if err != nil {
		return fail(err)
	}
	var pacer osnhttp.Pacer = osnhttp.NoPace{}
	if *pace > 0 {
		pacer = osnhttp.SleepPace{Interval: *pace}
	}
	client := osnhttp.NewClient(*url, nil, pacer).WithSeed(*reqSeed).WithLog(out.lg)
	// All fetches flow through one fetch cache (the study kept its parses
	// in an SQL database); -archive exports it and -resume restores it, so
	// an interrupted crawl picks up where it stopped. The archive is read
	// before any account is registered.
	cached := cache.New(client)
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			return fail(err)
		}
		cached, err = cache.ReadJSON(f, client)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("resuming from %s: %w", *resume, err))
		}
		n := cached.Contents()
		fmt.Fprintf(stdout, "resuming: %d profiles, %d friend lists, %d partial lists already archived\n",
			n.Profiles, n.FriendLists+n.HiddenLists, n.PartialLists)
	}
	if err := client.RegisterAccounts(*accounts); err != nil {
		return fail(err)
	}
	sess := crawler.NewSession(cached).Instrument(out.reg).WithLog(out.lg)
	sess.Timeout = *reqTimeout

	if out.tr != nil {
		if *traceOut != "" {
			out.tr.OnStart = func(s *obs.Span) {
				if s.Depth() == 1 { // methodology steps, not per-request spans
					fmt.Fprintf(stderr, "hsprofile: ▶ %s\n", s.Name())
				}
			}
		}
		ctx = out.tr.Context(ctx)
	}
	ctx = evlog.NewContext(ctx, out.lg)

	if out.manifest != nil {
		out.manifest.Scenario = *school
		for k, v := range map[string]any{
			"url": *url, "school": *school, "year": *year, "accounts": *accounts,
			"mode": *mode, "t": *threshold, "epsilon": *epsilon, "filter": *filtering,
			"pace": pace.String(), "failure-budget": *failureBudget,
			"workers": *workers, "req-timeout": reqTimeout.String(),
		} {
			out.manifest.SetParam(k, v)
		}
	}

	m := core.Basic
	if *mode == "enhanced" {
		m = core.Enhanced
	}
	start := time.Now()
	res, err := core.RunContext(ctx, sess, core.Params{
		SchoolName:    *school,
		CurrentYear:   *year,
		Mode:          m,
		Epsilon:       *epsilon,
		MaxThreshold:  *threshold,
		FetchProfiles: *filtering,
		FailureBudget: *failureBudget,
		Workers:       *workers,
	})
	if err != nil {
		return finish(stdout, stderr, out, *archive, cached, err)
	}
	sel := res.Select(*threshold, *filtering)

	fmt.Fprintf(stdout, "target: %s (%s)\n", res.School.Name, res.School.City)
	fmt.Fprintf(stdout, "seeds: %d   core: %d   extended core: %d   candidates: %d\n",
		len(res.Seeds), res.SeedCoreSize, res.ExtendedCoreSize, res.CandidateCount())
	fmt.Fprintf(stdout, "effort: %d seed + %d profile + %d friend-list = %d requests in %s\n",
		res.Effort.SeedRequests, res.Effort.ProfileRequests,
		res.Effort.FriendListRequests, res.Effort.Total(), time.Since(start).Round(time.Millisecond))
	if res.Retries.Total() > 0 || res.Failures.Total() > 0 || res.FailedFetches > 0 {
		fmt.Fprintf(stdout, "resilience: %d retries (%d seed, %d profile, %d friend-list), %d hard failures, %d items absorbed\n",
			res.Retries.Total(), res.Retries.SeedRequests, res.Retries.ProfileRequests,
			res.Retries.FriendListRequests, res.Failures.Total(), res.FailedFetches)
	}
	if saved := cached.Stats().Hits.Total(); saved > 0 {
		fmt.Fprintf(stdout, "archive cache: %d requests served locally\n", saved)
	}
	fmt.Fprintf(stdout, "inferred students (|H| = %d):\n", len(sel))

	byYear := map[int]int{}
	for _, s := range sel {
		byYear[s.GradYear]++
	}
	years := make([]int, 0, len(byYear))
	for y := range byYear {
		years = append(years, y)
	}
	sort.Ints(years)
	for _, y := range years {
		fmt.Fprintf(stdout, "  class of %d: %d students\n", y, byYear[y])
	}

	if *dossiers {
		// The dossier crawl runs on the attack's session: same accounts,
		// suspensions and retry budget, and its logical effort is the
		// session's tally delta at any width.
		dctx, span := obs.StartSpan(ctx, "build-dossiers")
		before := sess.Effort()
		d, err := extend.Build(dctx, sess, *workers, sel)
		dossierEffort := sess.Effort().Sub(before)
		span.End()
		if err != nil {
			return finish(stdout, stderr, out, *archive, cached, err)
		}
		minors := d.MinorProfiles(sel, res.School)
		st := d.AdultMinorTable(sel, *year)
		fmt.Fprintf(stdout, "\nSection 6 extension:\n")
		fmt.Fprintf(stdout, "  registered-minor dossiers: %d (avg %.1f recovered friends each)\n",
			len(minors), d.AvgRecoveredFriends(sel))
		fmt.Fprintf(stdout, "  minors registered as adults: %d (%.0f%% public friend lists, %.0f%% messageable)\n",
			st.Count, st.FriendListPublic*100, st.MessageLink*100)
		fmt.Fprintf(stdout, "  dossier effort: %d profile + %d friend-list = %d requests\n",
			dossierEffort.ProfileRequests, dossierEffort.FriendListRequests, dossierEffort.Total())
	}

	// Result parameters land in the manifest so a run report can print the
	// Table 2-4 summary without re-parsing stdout.
	if out.manifest != nil {
		out.manifest.SetParam("result_selected", len(sel))
		byYearParam := make(map[string]int, len(byYear))
		for y, n := range byYear {
			byYearParam[fmt.Sprintf("%d", y)] = n
		}
		out.manifest.SetParam("result_by_year", byYearParam)
		out.manifest.SetParam("result_seeds", len(res.Seeds))
		out.manifest.SetParam("result_core", res.SeedCoreSize)
		out.manifest.SetParam("result_extended_core", res.ExtendedCoreSize)
		out.manifest.SetParam("result_candidates", res.CandidateCount())
	}

	return finish(stdout, stderr, out, *archive, cached, nil)
}

// finish ends a run on every path, clean, interrupted or failed: it writes
// the archive, then flushes the run outputs, replaying the flight recorder
// if anything failed, and only then reports errors. A bad -archive path
// therefore never costs the trace, manifest or event log. It returns the
// exit status: 130 for an interrupt whose archive was written, 1 for any
// other error.
func finish(stdout, stderr io.Writer, out *runOutputs, archivePath string, c *cache.Cache, runErr error) int {
	interrupted := errors.Is(runErr, context.Canceled)
	if interrupted {
		fmt.Fprintln(stderr, "hsprofile: interrupted; writing partial archive")
	}
	archiveErr := writeArchive(stdout, archivePath, c, out.lg)
	out.flush(stdout, stderr, runErr != nil || archiveErr != nil)
	code := 0
	if interrupted {
		code = 130
	} else if runErr != nil {
		fmt.Fprintf(stderr, "hsprofile: %v\n", runErr)
		code = 1
	}
	if archiveErr != nil {
		fmt.Fprintf(stderr, "hsprofile: archive %s: %v\n", archivePath, archiveErr)
		code = 1
	}
	return code
}

// writeArchive exports the fetch cache to path (no-op when path is empty),
// logging each export as a "checkpoint" event.
func writeArchive(stdout io.Writer, path string, c *cache.Cache, lg *evlog.Logger) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	n := c.Contents()
	lg.Info(context.Background(), "checkpoint", "archive written",
		evlog.Str("path", path), evlog.Int("profiles", n.Profiles),
		evlog.Int("friend_lists", n.FriendLists+n.HiddenLists),
		evlog.Int("partial_lists", n.PartialLists))
	fmt.Fprintf(stdout, "\narchive: %d profiles, %d friend lists (%d hidden), %d partial -> %s\n",
		n.Profiles, n.FriendLists, n.HiddenLists, n.PartialLists, path)
	return nil
}

// attackFlags are the flag values validate checks.
type attackFlags struct {
	school, mode                        string
	accounts, t, workers, failureBudget int
	epsilon                             float64
	pace, reqTimeout                    time.Duration
}

// validate rejects flag values that would run another experiment than the
// one asked for, or fail only after the crawl: a mistyped -mode ran basic,
// a -t below 1 selected every candidate or panicked in Select, and
// -accounts 0 failed with a misleading "no core users". It names every bad
// flag at once, before any account is registered.
func validate(f attackFlags) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if f.school == "" {
		bad("-school is required")
	}
	if f.mode != "basic" && f.mode != "enhanced" {
		bad("-mode must be basic or enhanced, got %q", f.mode)
	}
	if f.accounts < 1 {
		bad("-accounts must be at least 1, got %d", f.accounts)
	}
	if f.t < 1 {
		bad("-t must be at least 1, got %d", f.t)
	}
	if !(f.epsilon > 0) || math.IsInf(f.epsilon, 1) {
		bad("-epsilon must be a finite number > 0 (a tiny ε such as 1e-9 gives the bare t window), got %v", f.epsilon)
	}
	if f.workers < 1 {
		bad("-workers must be at least 1, got %d", f.workers)
	}
	if f.failureBudget < 0 {
		bad("-failure-budget must be non-negative, got %d", f.failureBudget)
	}
	if f.pace < 0 {
		bad("-pace must be non-negative, got %v", f.pace)
	}
	if f.reqTimeout < 0 {
		bad("-req-timeout must be non-negative, got %v", f.reqTimeout)
	}
	return errors.Join(errs...)
}
