package telemetry

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
)

// Thresholds are the anomaly trip-wires: when an account's window crosses
// any of them, the aggregator emits one osn.telemetry warning event for
// that account (edge-triggered — re-armed only if the account drops back
// below every threshold). Zero-valued fields are replaced by defaults.
type Thresholds struct {
	// FanOut trips on search page-fetches per window.
	FanOut int64
	// Coverage trips on friend-list pages per distinct list owner.
	Coverage float64
	// DistinctProfiles trips on profile-view cardinality per window.
	DistinctProfiles float64
	// Score trips on the combined crawler-likeness score.
	Score float64
}

// DefaultThresholds are tuned against this repo's own workloads: the HS1
// attack blows through all four; the loadgen's organic mix stays under
// coverage and score.
func DefaultThresholds() Thresholds {
	return Thresholds{FanOut: 30, Coverage: 3, DistinctProfiles: 200, Score: 15}
}

func (th Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds()
	if th.FanOut <= 0 {
		th.FanOut = d.FanOut
	}
	if th.Coverage <= 0 {
		th.Coverage = d.Coverage
	}
	if th.DistinctProfiles <= 0 {
		th.DistinctProfiles = d.DistinctProfiles
	}
	if th.Score <= 0 {
		th.Score = d.Score
	}
	return th
}

// crossed reports whether the snapshot trips any threshold, and which.
func (th Thresholds) crossed(s AccountSnapshot) (bool, string) {
	switch {
	case s.Searches >= th.FanOut:
		return true, "fanout"
	case s.Coverage >= th.Coverage:
		return true, "coverage"
	case s.DistinctProfiles >= th.DistinctProfiles:
		return true, "distinct_profiles"
	case s.Score >= th.Score:
		return true, "score"
	}
	return false, ""
}

// AggregatorOptions configure the background rollup loop.
type AggregatorOptions struct {
	// Interval between rollups; defaults to 10s.
	Interval time.Duration
	// Registry receives osn_telemetry_* series (nil = no metrics).
	Registry *obs.Registry
	// Log receives per-account feature events and anomaly warnings on the
	// osn.telemetry category (nil = no events).
	Log *evlog.Logger
	// Thresholds for anomaly events; zero fields take defaults.
	Thresholds Thresholds
}

// Aggregator periodically snapshots a Table and publishes the result as
// Prometheus gauges and evlog events. Recording stays on the serving
// path; everything with observable cost (feature math, pairwise overlap,
// metric exposition) happens here, off to the side.
type Aggregator struct {
	table    *Table
	interval time.Duration
	lg       *evlog.Logger
	th       Thresholds

	accounts  *obs.Gauge
	rollups   *obs.Counter
	anomalies *obs.Counter
	reg       *obs.Registry

	// flagged edge-triggers anomaly events per token.
	flagged map[string]bool

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewAggregator wires an aggregator to a table. Call Start to begin the
// loop and Stop for a final rollup + shutdown.
func NewAggregator(t *Table, opts AggregatorOptions) *Aggregator {
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Second
	}
	g := &Aggregator{
		table:    t,
		interval: opts.Interval,
		lg:       opts.Log,
		th:       opts.Thresholds.withDefaults(),
		reg:      opts.Registry,
		flagged:  make(map[string]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if opts.Registry != nil {
		g.accounts = opts.Registry.Gauge("osn_telemetry_accounts", "Accounts currently tracked by the telemetry table.")
		g.rollups = opts.Registry.Counter("osn_telemetry_rollups_total", "Telemetry rollups performed.")
		g.anomalies = opts.Registry.Counter("osn_telemetry_anomalies_total", "Accounts that crossed a crawler-likeness threshold.")
	}
	return g
}

// Start launches the rollup loop in its own goroutine.
func (g *Aggregator) Start() {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return
	}
	g.started = true
	g.mu.Unlock()
	go g.loop()
}

func (g *Aggregator) loop() {
	defer close(g.done)
	tick := time.NewTicker(g.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			g.Rollup()
		case <-g.stop:
			return
		}
	}
}

// Stop ends the loop and performs one final rollup, so short-lived runs
// (an end-to-end test's daemon) still publish their last window.
func (g *Aggregator) Stop() {
	g.mu.Lock()
	started := g.started
	g.mu.Unlock()
	if started {
		close(g.stop)
		<-g.done
	}
	g.Rollup()
}

// Rollup snapshots the table once: gauges updated, one feature event per
// account, anomaly warnings on threshold crossings. Safe to call
// directly (tests, final flush).
func (g *Aggregator) Rollup() {
	snaps := g.table.Snapshot()
	if g.accounts != nil {
		g.accounts.Set(float64(len(snaps)))
		g.rollups.Inc()
	}
	ctx := context.Background()
	for _, s := range snaps {
		if g.reg != nil {
			lbl := fmt.Sprintf(`account=%q`, s.Token)
			g.reg.Gauge("osn_telemetry_score{"+lbl+"}", "Crawler-likeness score per account.").Set(s.Score)
			g.reg.Gauge("osn_telemetry_fanout{"+lbl+"}", "Search fan-out per account window.").Set(float64(s.Searches))
			g.reg.Gauge("osn_telemetry_coverage{"+lbl+"}", "Friend-list page coverage per account window.").Set(s.Coverage)
			g.reg.Gauge("osn_telemetry_distinct_profiles{"+lbl+"}", "Distinct profiles viewed per account window.").Set(s.DistinctProfiles)
		}
		if g.lg.On(evlog.Info) {
			g.lg.Info(ctx, "osn.telemetry", "account features",
				evlog.Str("token", s.Token),
				evlog.I64("requests", s.Requests),
				evlog.I64("fanout", s.Searches),
				evlog.I64("profiles", s.Profiles),
				evlog.I64("friend_pages", s.FriendPages),
				evlog.Float("distinct", s.DistinctProfiles),
				evlog.Float("coverage", s.Coverage),
				evlog.Float("harvest", s.HarvestRatio),
				evlog.Float("ia_cv", s.InterarrivalCV),
				evlog.Float("overlap", s.MaxOverlap),
				evlog.Float("score", s.Score))
		}
		hit, feature := g.th.crossed(s)
		if hit && !g.flagged[s.Token] {
			g.flagged[s.Token] = true
			if g.anomalies != nil {
				g.anomalies.Inc()
			}
			g.lg.Warn(ctx, "osn.telemetry", "crawler-likeness threshold crossed",
				evlog.Str("token", s.Token),
				evlog.Str("feature", feature),
				evlog.I64("fanout", s.Searches),
				evlog.Float("coverage", s.Coverage),
				evlog.Float("distinct", s.DistinctProfiles),
				evlog.Float("score", s.Score))
		} else if !hit {
			delete(g.flagged, s.Token)
		}
	}
}
