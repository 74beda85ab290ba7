package core

import (
	"context"
	"fmt"
	"math"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
)

// Run executes the profiling methodology against the session's platform.
// The six steps of §4.1 map onto the code as:
//
//  1. seed collection           → Session.CollectSeeds
//  2. core extraction           → profile fetch + IndicatesCurrentStudent
//  3. candidate harvesting      → friend-list fetch over the core
//  4. reverse lookup G_i(u)     → hit counting while harvesting
//  5. scoring x(u)              → classify
//  6. rank / threshold / class  → sort + Result.Select
//
// Enhanced mode (§4.3) then downloads the top (1+ε)·MaxThreshold profiles,
// promotes self-declared students into the core, and repeats 3-6 with the
// augmented core. Filtering (§4.4) is evaluated lazily: the run records
// each downloaded profile's filter verdict and Select applies it.
func Run(sess *crawler.Session, p Params) (*Result, error) {
	return RunContext(context.Background(), sess, p)
}

// RunContext is Run under a caller context. Cancelling it stops the crawl
// between requests (calls already in flight finish, bounded by the
// session's Timeout); the returned error then wraps the context's error.
// Per-item fetch failures (after the crawl layer's own retries) are
// absorbed up to Params.FailureBudget, so a run against a flaky platform
// degrades item by item instead of dying whole.
//
// The fetch stages run over the session's worker pool, Params.Workers
// wide; the ranked output and every tally are bit-identical at any width
// (see engine). Unless Params.DisableFetchCache is set, the run also
// interposes an in-memory fetch cache under the effort tally, so re-passes
// of the enhanced methodology stop re-downloading profiles and friend
// lists they already have — without changing the Table 3 request counts.
//
// When ctx carries an obs trace (obs.NewTrace + Trace.Context), every
// methodology step runs under its own span — lookup-school,
// collect-seeds, extract-core, harvest-and-score, enhanced-promote,
// re-harvest, window-profiles — so a finished run can dump per-phase wall
// time without having been sampled.
func RunContext(ctx context.Context, sess *crawler.Session, p Params) (*Result, error) {
	p = p.withDefaults()
	if err := validateParams(p); err != nil {
		return nil, err
	}
	// If the context carries an event logger and the session has none of its
	// own, adopt it, so a single NewContext at the entry point wires the
	// whole crawl.
	lg := evlog.FromContext(ctx)
	if sess.Log() == nil {
		sess.WithLog(lg)
	} else if lg == nil {
		lg = sess.Log()
	}
	// Interpose the memoizing fetch cache below the effort tally, unless the
	// client already is one (hsprofile's archive, a cache shared across
	// runs) or the caller opted out. Restored on return: the cache's
	// lifetime is one run.
	if _, cached := sess.Client().(*cache.Cache); !cached && !p.DisableFetchCache {
		cc := cache.New(sess.Client()).Instrument(sess.MetricsRegistry()).WithLog(lg)
		orig := sess.SwapClient(cc)
		defer sess.SwapClient(orig)
	}
	// step opens a span for one methodology step; crawl requests made under
	// the returned context nest under it, and their events carry its id.
	step := func(name string) (context.Context, func()) {
		stepCtx, span := obs.StartSpan(ctx, name)
		return stepCtx, span.End
	}
	stepCtx, end := step("lookup-school")
	school, err := sess.LookupSchool(stepCtx, p.SchoolName)
	end()
	if err != nil {
		return nil, fmt.Errorf("core: looking up target school: %w", err)
	}
	lg.Info(ctx, "method", "school resolved",
		evlog.Str("school", school.Name), evlog.Int("school_id", school.ID))
	r := &Result{
		Params:         p,
		School:         school,
		CorePrime:      make(map[osn.PublicID]int),
		corePrimeNames: make(map[osn.PublicID]string),
	}
	eng := newEngine(sess, r)

	// Step 1: seeds.
	accounts := p.SeedAccounts
	if accounts == nil {
		accounts = sess.AllAccounts()
	}
	stepCtx, end = step("collect-seeds")
	r.Seeds, err = sess.CollectSeeds(stepCtx, p.Workers, school.ID, accounts)
	end()
	if err != nil {
		return nil, err
	}
	lg.Info(ctx, "method", "seeds collected",
		evlog.Int("seeds", len(r.Seeds)), evlog.Int("accounts", len(accounts)))

	// Step 2: C′ and C from seed profiles.
	stepCtx, end = step("extract-core")
	profiles, err := eng.seedProfiles(stepCtx, r.Seeds)
	end()
	if err != nil {
		return nil, err
	}
	var core []CoreUser
	for _, pp := range profiles {
		if pp == nil {
			continue // fetch failure absorbed under the budget
		}
		if !IndicatesCurrentStudent(pp, school.Name, p.CurrentYear) {
			continue
		}
		r.CorePrime[pp.ID] = pp.GradYear
		r.corePrimeNames[pp.ID] = pp.Name
		if pp.FriendListVisible {
			core = append(core, CoreUser{
				ID:        pp.ID,
				GradYear:  pp.GradYear,
				Cohort:    pp.GradYear - p.CurrentYear,
				FromSeeds: true,
			})
		}
	}
	r.SeedCoreSize = len(core)
	lg.Info(ctx, "method", "core extracted",
		evlog.Int("core", len(core)), evlog.Int("core_prime", len(r.CorePrime)))
	if len(core) == 0 {
		return nil, fmt.Errorf("core: no core users found for %q: the school search yielded no current students with visible friend lists", p.SchoolName)
	}

	// Steps 3-6.
	stepCtx, end = step("harvest-and-score")
	err = eng.harvestAndScore(stepCtx, core)
	end()
	if err != nil {
		return nil, err
	}
	lg.Info(ctx, "method", "harvested and scored", evlog.Int("candidates", len(r.Ranked)))

	// No window is longer than the ranking; capping it before the int
	// conversion keeps a huge but finite ε or t from overflowing it.
	window := int(min(float64(p.MaxThreshold)*(1+p.Epsilon), math.MaxInt32))
	if p.Mode == Enhanced {
		// §4.3: download the top-(1+ε)t profiles, promote self-declared
		// current students to the core, recompute from step 3 with the
		// augmented core, and re-apply the window to the new ranking.
		stepCtx, end = step("enhanced-promote")
		promoted, err := eng.fetchWindowProfiles(stepCtx, window, true)
		end()
		if err != nil {
			return nil, err
		}
		lg.Info(ctx, "method", "enhanced promotion",
			evlog.Int("promoted", len(promoted)), evlog.Int("window", window))
		if len(promoted) > 0 {
			core = append(core, promoted...)
			stepCtx, end = step("re-harvest")
			err = eng.harvestAndScore(stepCtx, core)
			end()
			if err != nil {
				return nil, err
			}
			lg.Info(ctx, "method", "re-harvested with augmented core",
				evlog.Int("core", len(core)), evlog.Int("candidates", len(r.Ranked)))
		}
		stepCtx, end = step("window-profiles")
		_, err = eng.fetchWindowProfiles(stepCtx, window, false)
		end()
		if err != nil {
			return nil, err
		}
	} else if p.FetchProfiles {
		stepCtx, end = step("window-profiles")
		_, err = eng.fetchWindowProfiles(stepCtx, window, false)
		end()
		if err != nil {
			return nil, err
		}
	}

	r.ExtendedCoreSize = len(r.CorePrime)
	eng.finish()
	return r, nil
}
