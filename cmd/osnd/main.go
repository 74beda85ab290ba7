// Command osnd serves a world as the simulated OSN over HTTP.
//
// Usage:
//
//	osnd -world hs1.json -addr :8080
//	osnd -scenario hs1 -addr :8080 -policy googleplus
//	osnd -scenario hs1 -no-reverse-lookup   # the §8 countermeasure
//	osnd -scenario hs1 -faults 0.1          # serve a hostile platform
//	osnd -scenario hs1 -metrics-addr :9090  # Prometheus /metrics + pprof
//	osnd -scenario hs1 -manifest-out run.json  # provenance record on shutdown
//	osnd -scenario tiny -addr 127.0.0.1:0   # any free port; the banner names it
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hsprofiler/internal/faults"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osn/telemetry"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

func main() {
	ctx, cancel := context.WithCancelCause(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { cancel(fmt.Errorf("%v", <-sig)) }()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon. It serves until ctx is cancelled (main cancels it on
// SIGINT or SIGTERM, with the signal as the cause), then drains, stops
// everything it started and returns the exit status. A bad flag exits 2.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("osnd", flag.ExitOnError)
	fs.SetOutput(stderr)
	worldFile := fs.String("world", "", "world snapshot file (from cmd/worldgen; JSON or binary, sniffed)")
	scenario := fs.String("scenario", "", "generate a scenario instead of loading: hs1, hs2, hs3, tiny")
	seed := fs.Uint64("seed", 2013, "seed when generating")
	addr := fs.String("addr", ":8080", "listen address")
	policy := fs.String("policy", "facebook", "platform policy: facebook, googleplus")
	noReverse := fs.Bool("no-reverse-lookup", false, "enable the Section 8 countermeasure")
	searchCap := fs.Int("search-cap", 400, "max search results per account")
	budget := fs.Int("request-budget", 0, "per-account request ceiling before suspension (0 = unlimited)")
	throttleLimit := fs.Int("throttle-limit", 0, "per-account requests allowed per throttle window (0 = no throttling)")
	throttleWindow := fs.Duration("throttle-window", time.Minute, "sliding window for -throttle-limit")
	faultRate := fs.Float64("faults", 0, "composite fault-injection rate in [0,1], split evenly across 5xx, spurious throttles, connection resets, truncated and garbled pages (0 = off)")
	faultSeed := fs.Uint64("fault-seed", 1, "fault injector seed (same seed + same request sequence = same faults)")
	faultLatency := fs.Duration("fault-latency", 0, "max injected latency; applied to roughly a quarter of requests (0 = off)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics, JSON /metrics.json, /healthz and net/http/pprof on this address (empty = disabled)")
	manifestOut := fs.String("manifest-out", "", "write a JSON run manifest (params, freeze-phase timing, request counters) to this file on shutdown")
	eventsOut := fs.String("events-out", "", "write the structured event log (JSONL: access log, policy gates, account transitions, injected faults) to this file")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "serving listener: max time to read a request header")
	readTimeout := fs.Duration("read-timeout", 15*time.Second, "serving listener: max time to read a full request")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "serving listener: max time to write a response")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "serving listener: keep-alive idle connection timeout")
	shutdownGrace := fs.Duration("shutdown-grace", 10*time.Second, "max time to wait for inflight requests on SIGTERM before abandoning them")
	inflightSearch := fs.Int("inflight-search", 0, "max concurrent search requests; excess shed with 503 (0 = unlimited)")
	inflightProfile := fs.Int("inflight-profile", 0, "max concurrent profile requests; excess shed with 503 (0 = unlimited)")
	inflightFriends := fs.Int("inflight-friends", 0, "max concurrent friend-list requests; excess shed with 503 (0 = unlimited)")
	evolve := fs.Bool("evolve", false, "advance the world one simulated year per -evolve-interval and rotate the serving epoch incrementally (works on any world, generated or loaded from a snapshot)")
	evolveInterval := fs.Duration("evolve-interval", 30*time.Second, "wall-clock time per simulated year under -evolve")
	evolveEpochs := fs.Int("evolve-epochs", 0, "stop evolving after this many epochs (0 = until shutdown)")
	evolveWorkers := fs.Int("evolve-workers", 4, "worker goroutines for the evolution step (any count yields bit-identical worlds)")
	evolveOpenMinorSearch := fs.Int("evolve-open-minor-search", 0, "simulated year at which the policy flips to list minors in search, like Facebook in 2013 (0 = never)")
	admin := fs.Bool("admin", false, "enable behavioral telemetry and the /api/v1/admin/telemetry introspection endpoint (excluded from fault injection like /healthz)")
	telemetryWindow := fs.Duration("telemetry-window", time.Minute, "per-account telemetry window length under -admin; features aggregate over the current + previous window")
	telemetryRollup := fs.Duration("telemetry-rollup", 10*time.Second, "how often the telemetry aggregator publishes osn_telemetry_* series and osn.telemetry events under -admin")
	fs.Parse(args)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "osnd: %v\n", err)
		return 1
	}

	sf := servingFlags{
		SearchCap:      *searchCap,
		RequestBudget:  *budget,
		ThrottleLimit:  *throttleLimit,
		ThrottleWindow: *throttleWindow,
		FaultRate:      *faultRate,
		Admin: adminFlags{
			Enabled:         *admin,
			TelemetryWindow: *telemetryWindow,
			TelemetryRollup: *telemetryRollup,
		},
		Evolve: evolveFlags{
			Enabled:             *evolve,
			Interval:            *evolveInterval,
			Epochs:              *evolveEpochs,
			Workers:             *evolveWorkers,
			OpenMinorSearchYear: *evolveOpenMinorSearch,
		},
		Server: osnhttp.ServerConfig{
			ReadHeaderTimeout: *readHeaderTimeout,
			ReadTimeout:       *readTimeout,
			WriteTimeout:      *writeTimeout,
			IdleTimeout:       *idleTimeout,
			ShutdownGrace:     *shutdownGrace,
			SearchInflight:    *inflightSearch,
			ProfileInflight:   *inflightProfile,
			FriendInflight:    *inflightFriends,
		},
	}
	if err := sf.validate(); err != nil {
		return fail(err)
	}
	serverCfg := sf.Server.WithDefaults()

	var w *worldgen.World
	var err error
	switch {
	case *worldFile != "":
		w, err = worldgen.ReadSnapshotFile(*worldFile)
	case *scenario != "":
		var cfg worldgen.Config
		switch *scenario {
		case "hs1":
			cfg = worldgen.HS1Config()
		case "hs2":
			cfg = worldgen.HS2Config()
		case "hs3":
			cfg = worldgen.HS3Config()
		case "tiny":
			cfg = worldgen.TinyConfig()
		default:
			return fail(fmt.Errorf("unknown scenario %q", *scenario))
		}
		w, err = worldgen.Generate(cfg, *seed)
	default:
		err = fmt.Errorf("one of -world or -scenario is required")
	}
	if err != nil {
		return fail(err)
	}

	var pol *osn.Policy
	switch *policy {
	case "facebook":
		pol = osn.Facebook()
	case "googleplus":
		pol = osn.GooglePlus()
	default:
		return fail(fmt.Errorf("unknown policy %q", *policy))
	}
	if *noReverse {
		pol.HiddenListsInReverseLookup = false
	}

	// Both listeners are bound before anything is announced: a banner names
	// an address that already accepts (with port 0, the one the kernel
	// picked), and a port already taken fails the start, naming its flag.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(fmt.Errorf("-addr: %w", err))
	}
	defer ln.Close()
	var metricsLn net.Listener
	if *metricsAddr != "" {
		if metricsLn, err = net.Listen("tcp", *metricsAddr); err != nil {
			return fail(fmt.Errorf("-metrics-addr: %w", err))
		}
		defer metricsLn.Close()
	}

	// The registry and trace exist whenever any observability output wants
	// them; nil keeps the obs layer a no-op otherwise.
	var reg *obs.Registry
	if *metricsAddr != "" || *manifestOut != "" {
		reg = obs.NewRegistry()
	}
	// The event log narrates the serving path: per-request access log,
	// policy-gate denials, account throttle/suspension transitions, injected
	// faults. Shard-contention debug events are sampled 1-in-100 — under a
	// parallel crawl they would otherwise dominate the log.
	var lg *evlog.Logger
	var eventsFile *os.File
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return fail(err)
		}
		eventsFile = f
		lg = evlog.New(evlog.Options{Sink: f, Sample: map[string]int{"osn.shard": 100}})
	}
	var tr *obs.Trace
	if *manifestOut != "" {
		tr = obs.NewTrace("osnd")
		ctx = tr.Context(ctx)
	}

	// Building the platform under the trace records the construction-time
	// freeze (the read-plane snapshot) as its own phase, so the manifest
	// separates freeze cost from serving; Instrument registers the
	// per-plane request and per-shard contention series on /metrics.
	platform := osn.NewPlatformContext(ctx, w, pol, osn.Config{
		SearchPerAccount: *searchCap,
		RequestBudget:    *budget,
		ThrottleLimit:    *throttleLimit,
		ThrottleWindow:   *throttleWindow,
	}).Instrument(reg).WithLog(lg)
	// The defender's watchtower: -admin attaches the behavioral telemetry
	// table to the serving path and a background aggregator that publishes
	// per-account crawler-likeness features as metrics and events.
	var tel *telemetry.Table
	var agg *telemetry.Aggregator
	if sf.Admin.Enabled {
		tel = telemetry.NewTable(sf.Admin.TelemetryWindow)
		platform.WithTelemetry(tel)
		agg = telemetry.NewAggregator(tel, telemetry.AggregatorOptions{
			Interval: sf.Admin.TelemetryRollup,
			Registry: reg,
			Log:      lg,
		})
		agg.Start()
		fmt.Fprintf(stdout, "osnd: admin telemetry on /api/v1/admin/telemetry (window %v, rollup %v)\n",
			sf.Admin.TelemetryWindow, sf.Admin.TelemetryRollup)
	}
	for _, s := range platform.Schools() {
		fmt.Fprintf(stdout, "serving school %q (%s)\n", s.Name, s.City)
	}
	fmt.Fprintf(stdout, "osnd: %s policy on %s (read plane frozen in %s)\n", pol.Name, ln.Addr(), platform.FreezeDuration().Round(time.Millisecond))
	if lg != nil {
		fmt.Fprintf(stdout, "osnd: event log -> %s\n", *eventsOut)
	}
	// The injector's middleware wraps outside the instrumented server, so
	// injected 503s land in faults_injected_total, not in the platform's
	// own throttle series.
	server := osnhttp.NewServer(platform).Instrument(reg).WithLog(lg).
		WithLimits(*inflightSearch, *inflightProfile, *inflightFriends).
		WithTelemetry(tel)
	var handler http.Handler = server
	var injector *faults.Injector
	if *faultRate > 0 || *faultLatency > 0 {
		cfg := faults.Composite(*faultRate, *faultSeed)
		if *faultLatency > 0 {
			cfg.Latency = 0.25
			cfg.MaxLatency = *faultLatency
		}
		injector = faults.New(cfg).Instrument(reg).WithLog(lg)
		faulty := injector.Middleware(handler)
		// The load balancer's liveness probe must stay reliable even on a
		// deliberately hostile platform, so /healthz bypasses the injector —
		// and so does the admin introspection surface: the defender's view
		// of a hostile platform must not itself be hostile.
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" || strings.HasPrefix(r.URL.Path, "/api/v1/admin/") {
				server.ServeHTTP(w, r)
				return
			}
			faulty.ServeHTTP(w, r)
		})
		rate := cfg.ServerError + cfg.Throttle + cfg.Reset + cfg.Truncate + cfg.Garble
		fmt.Fprintf(stdout, "osnd: injecting faults at rate %.2f (seed %d)\n", rate, *faultSeed)
	}

	// The temporal loop: one simulated year per interval, then an epoch
	// swap. Mutation runs entirely off the read path — serving continues on
	// the previous epoch until AdvanceEpoch publishes the next one. It ends
	// at its epoch bound or at shutdown, which waits for it.
	evolveCtx, stopEvolve := context.WithCancel(ctx)
	evolved := make(chan struct{})
	if sf.Evolve.Enabled {
		fmt.Fprintf(stdout, "osnd: evolving every %v (epochs: %s, workers: %d)\n",
			sf.Evolve.Interval, epochBound(sf.Evolve.Epochs), sf.Evolve.Workers)
		go func() {
			defer close(evolved)
			ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), sf.Evolve.Workers)
			cur := pol
			ticker := time.NewTicker(sf.Evolve.Interval)
			defer ticker.Stop()
			for epoch := 1; sf.Evolve.Epochs == 0 || epoch <= sf.Evolve.Epochs; epoch++ {
				select {
				case <-ticker.C:
				case <-evolveCtx.Done():
					return
				}
				d, err := ev.Step(w, epoch)
				if err != nil {
					fmt.Fprintf(stderr, "osnd: evolve: %v\n", err)
					return
				}
				if y := sf.Evolve.OpenMinorSearchYear; y != 0 && w.Now.Year >= y && !cur.MinorsSearchable {
					flipped := *cur
					flipped.Name = cur.Name + "+minors-searchable"
					flipped.MinorsSearchable = true
					cur = &flipped
					platform.SetPolicy(cur)
					fmt.Fprintf(stdout, "osnd: year %d: policy flip, minors now searchable\n", w.Now.Year)
				}
				st := platform.AdvanceEpochDelta(evolveCtx, d)
				mode := "full"
				if st.Incremental {
					mode = "incremental"
				}
				fmt.Fprintf(stdout, "osnd: epoch %d (year %d): +%d/-%d edges, graduated %d, built in %s (%s, swap %s)\n",
					st.Seq, st.Year, len(d.Added), len(d.Removed), d.Graduated,
					st.Build.Round(time.Millisecond), mode, st.Swap.Round(10*time.Microsecond))
			}
		}()
	} else {
		close(evolved)
	}

	srv := serverCfg.HTTPServer(*addr, handler)

	var metricsSrv *http.Server
	metricsServed := make(chan error, 1)
	if metricsLn != nil {
		metricsSrv = &http.Server{
			Handler:           metricsMux(reg, start),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() { metricsServed <- metricsSrv.Serve(metricsLn) }()
		fmt.Fprintf(stdout, "osnd: metrics on %s (/metrics, /metrics.json, /healthz, /debug/pprof/)\n", metricsLn.Addr())
	}

	// Graceful shutdown when ctx ends; the metrics server drains with the
	// platform so a final scrape can still land during shutdown.
	code := 0
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		code = fail(err)
	case <-ctx.Done():
		fmt.Fprintf(stdout, "osnd: %v, draining (up to %v for %d inflight)\n", context.Cause(ctx), serverCfg.ShutdownGrace, server.Inflight())
		remaining, err := serverCfg.Drain(srv, server)
		<-served
		if remaining > 0 || err != nil {
			fmt.Fprintf(stderr, "osnd: drain incomplete: %d requests abandoned (%v)\n", remaining, err)
		} else {
			fmt.Fprintln(stdout, "osnd: drained cleanly")
		}
	}
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		metricsSrv.Shutdown(ctx)
		if err := <-metricsServed; err != http.ErrServerClosed {
			fmt.Fprintf(stderr, "osnd: metrics server: %v\n", err)
		}
	}
	// Final telemetry rollup before the event log closes: a run shorter
	// than one rollup interval still publishes its defender view.
	if agg != nil {
		agg.Stop()
	}
	stopEvolve()
	<-evolved
	if injector != nil {
		fmt.Fprintf(stdout, "osnd: %s\n", injector.Stats())
	}
	if eventsFile != nil {
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintf(stderr, "osnd: event log: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "osnd: %d events logged (%d sampled away) -> %s\n",
				lg.Events(), lg.Sampled(), *eventsOut)
		}
	}
	if *manifestOut != "" {
		if err := writeManifest(stdout, *manifestOut, tr, reg, map[string]any{
			"addr": *addr, "policy": pol.Name, "scenario": *scenario, "world": *worldFile,
			"search-cap": *searchCap, "request-budget": *budget,
			"throttle-limit": *throttleLimit, "throttle-window": throttleWindow.String(),
			"faults": *faultRate, "admin": sf.Admin.Enabled,
		}); err != nil {
			return fail(err)
		}
	}
	return code
}

// writeManifest dumps the serve run's manifest: flags, the osn.freeze span
// as a phase, and the final counter values (plane request totals, shard
// contention, faults).
func writeManifest(stdout io.Writer, path string, tr *obs.Trace, reg *obs.Registry, params map[string]any) error {
	tr.Finish()
	m := obs.NewManifest("osnd")
	for k, v := range params {
		m.SetParam(k, v)
	}
	m.AddTrace(tr)
	m.AddCounters(reg)
	m.Finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "osnd: manifest -> %s\n", path)
	return nil
}

// metricsMux assembles the observability endpoint: Prometheus exposition,
// a JSON health probe reporting the uptime since start, and the standard
// pprof handlers.
func metricsMux(reg *obs.Registry, start time.Time) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/metrics.json", reg.JSONHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.0f}\n", time.Since(start).Seconds())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// epochBound renders the -evolve-epochs bound for the startup banner.
func epochBound(n int) string {
	if n == 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d", n)
}
