package core_test

// Width-invariance tests for the attack pipeline: whatever the worker
// count, with or without injected faults, with or without the fetch cache,
// a run must reproduce the one-worker result bit for bit — ranking, core
// sets, Table 3 effort, retry and failure tallies, absorbed-failure
// accounting, and every Select slice. (External test package: the chaos
// variants pull in internal/faults, which the in-package tests cannot.)

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"time"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/crawler/cache"
	"hsprofiler/internal/faults"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// parallelRig builds a fresh session over a fresh platform for one run.
// Each run gets its own platform and accounts so no state leaks between
// the runs being compared. Backoff never sleeps, so the fault tests run at
// full speed; determinism must never depend on timing.
func parallelRig(t testing.TB, world *worldgen.World, wrap func(crawler.Client) crawler.Client) *crawler.Session {
	t.Helper()
	p := osn.NewPlatform(world, osn.Facebook(), osn.Config{})
	d, err := crawler.NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var c crawler.Client = d
	if wrap != nil {
		c = wrap(c)
	}
	sess := crawler.NewSession(c)
	sess.Sleep = func(time.Duration) {}
	return sess
}

// assertRunsEqual compares everything a run reports. Params are excluded
// (they differ by construction: the worker count under test).
func assertRunsEqual(t *testing.T, label string, ref, got *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Seeds, ref.Seeds) {
		t.Fatalf("%s: seed sets differ (%d vs %d)", label, len(got.Seeds), len(ref.Seeds))
	}
	if !reflect.DeepEqual(got.CorePrime, ref.CorePrime) {
		t.Fatalf("%s: CorePrime differs (%d vs %d)", label, len(got.CorePrime), len(ref.CorePrime))
	}
	if got.SeedCoreSize != ref.SeedCoreSize || got.ExtendedCoreSize != ref.ExtendedCoreSize {
		t.Fatalf("%s: core sizes %d/%d, want %d/%d", label,
			got.SeedCoreSize, got.ExtendedCoreSize, ref.SeedCoreSize, ref.ExtendedCoreSize)
	}
	if got.CohortSizes != ref.CohortSizes {
		t.Fatalf("%s: cohort sizes %v, want %v", label, got.CohortSizes, ref.CohortSizes)
	}
	if !reflect.DeepEqual(got.Ranked, ref.Ranked) {
		if len(got.Ranked) != len(ref.Ranked) {
			t.Fatalf("%s: |K| = %d, want %d", label, len(got.Ranked), len(ref.Ranked))
		}
		for i := range got.Ranked {
			if !reflect.DeepEqual(got.Ranked[i], ref.Ranked[i]) {
				t.Fatalf("%s: ranked[%d] differs:\n  got  %+v\n  want %+v", label, i, got.Ranked[i], ref.Ranked[i])
			}
		}
		t.Fatalf("%s: rankings differ", label)
	}
	if got.Effort != ref.Effort {
		t.Fatalf("%s: Effort %+v, want %+v", label, got.Effort, ref.Effort)
	}
	if got.Retries != ref.Retries {
		t.Fatalf("%s: Retries %+v, want %+v", label, got.Retries, ref.Retries)
	}
	if got.Failures != ref.Failures {
		t.Fatalf("%s: Failures %+v, want %+v", label, got.Failures, ref.Failures)
	}
	if got.FailedFetches != ref.FailedFetches {
		t.Fatalf("%s: FailedFetches %d, want %d", label, got.FailedFetches, ref.FailedFetches)
	}
	for _, th := range []int{5, 20, 80} {
		for _, filtering := range []bool{false, true} {
			if !reflect.DeepEqual(got.Select(th, filtering), ref.Select(th, filtering)) {
				t.Fatalf("%s: Select(%d, %v) differs", label, th, filtering)
			}
		}
	}
}

// TestParallelMatchesSequential: Workers ∈ {1, 4, 8} over both modes and
// several tiny worlds must yield bit-identical results — the acceptance
// criterion for the engine.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{11, 3, 5, 23} {
		world, err := worldgen.Generate(worldgen.TinyConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.Basic, core.Enhanced} {
			var ref *core.Result
			for _, workers := range []int{1, 4, 8} {
				sess := parallelRig(t, world, nil)
				res, err := core.Run(sess, core.Params{
					SchoolName:   world.Schools[0].Name,
					CurrentYear:  2012,
					Mode:         mode,
					MaxThreshold: 80,
					Workers:      workers,
				})
				if err != nil {
					t.Fatalf("seed %d %s workers=%d: %v", seed, mode, workers, err)
				}
				if workers == 1 {
					ref = res
					continue
				}
				assertRunsEqual(t, fmt.Sprintf("seed %d %s/workers=%d", seed, mode, workers), ref, res)
			}
		}
	}
}

// TestParallelChaosMatchesSequentialClean: an 8-worker run against a 10%
// composite fault rate must reproduce the clean one-worker result exactly.
// The injector's per-key fault schedules are deterministic and its
// MaxConsecutive cap keeps every fault below the retry budget, so even the
// retry tallies must match the one-worker faulted run, and no failure
// budget is ever consumed. Every run's crawl_requests_total must equal its
// Table 3 Effort, category by category.
func TestParallelChaosMatchesSequentialClean(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 0.10
	run := func(workers int, faulted bool) *core.Result {
		var wrap func(crawler.Client) crawler.Client
		if faulted {
			wrap = func(c crawler.Client) crawler.Client {
				return faults.New(faults.Composite(rate, 7)).Client(c)
			}
		}
		reg := obs.NewRegistry()
		sess := parallelRig(t, world, wrap).Instrument(reg)
		res, err := core.Run(sess, core.Params{
			SchoolName:    world.Schools[0].Name,
			CurrentYear:   2012,
			Mode:          core.Enhanced,
			MaxThreshold:  80,
			Workers:       workers,
			FailureBudget: 100,
		})
		if err != nil {
			t.Fatalf("workers=%d faulted=%v: %v", workers, faulted, err)
		}
		counters := reg.Counters()
		for cat, want := range map[string]int{
			"seed":       res.Effort.SeedRequests,
			"profile":    res.Effort.ProfileRequests,
			"friendlist": res.Effort.FriendListRequests,
		} {
			key := `crawl_requests_total{category="` + cat + `"}`
			if got := counters[key]; got != float64(want) {
				t.Errorf("workers=%d faulted=%v: %s = %v, Table 3 effort counts %d", workers, faulted, key, got, want)
			}
		}
		return res
	}
	clean := run(1, false)
	seqFaulted := run(1, true)
	parFaulted := run(8, true)

	if seqFaulted.Retries.Total() == 0 {
		t.Fatal("one-worker faulted run reports no retries; injector inert?")
	}
	if seqFaulted.FailedFetches != 0 || parFaulted.FailedFetches != 0 {
		t.Fatalf("failure budget consumed (%d at 1 worker, %d at 8); every fault should be survivable",
			seqFaulted.FailedFetches, parFaulted.FailedFetches)
	}
	// The faulted runs agree with each other on everything, including the
	// retry tallies (per-key fault schedules are schedule-independent).
	assertRunsEqual(t, "8-worker faulted vs 1-worker faulted", seqFaulted, parFaulted)
	// And with the clean run on everything the attack reports; only the
	// retry tally records that the faults happened.
	parFaulted.Retries, parFaulted.Failures = clean.Retries, clean.Failures
	assertRunsEqual(t, "8-worker faulted vs clean", clean, parFaulted)
}

// brokenClient permanently fails a deterministic subset of profile fetches
// with a terminal (non-transient) error, to exercise the shared failure
// budget: the absorbed-failure count must not depend on the worker count.
type brokenClient struct {
	crawler.Client
}

func (b *brokenClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	h := fnv.New32a()
	h.Write([]byte(id))
	if h.Sum32()%7 == 0 {
		return nil, osn.ErrNotFound
	}
	return b.Client.Profile(acct, id)
}

// TestParallelFailureBudgetDeterministic: with a client that hard-fails a
// fixed subset of profiles, runs at 1 and 8 workers must absorb the same
// number of failures and produce the same degraded result.
func TestParallelFailureBudgetDeterministic(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(c crawler.Client) crawler.Client { return &brokenClient{Client: c} }
	run := func(workers int) *core.Result {
		sess := parallelRig(t, world, wrap)
		res, err := core.Run(sess, core.Params{
			SchoolName:    world.Schools[0].Name,
			CurrentYear:   2012,
			Mode:          core.Enhanced,
			MaxThreshold:  80,
			Workers:       workers,
			FailureBudget: 1000,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	if ref.FailedFetches == 0 {
		t.Fatal("broken client absorbed no failures; the budget path is untested")
	}
	assertRunsEqual(t, "failure-budget workers=8", ref, run(8))
}

// TestRunCacheEffortTransparency: the memoizing fetch cache interposed by
// RunContext must not change a single reported number — Table 3 counts
// logical requests above the cache — at any worker count.
func TestRunCacheEffortTransparency(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, disable bool) *core.Result {
		sess := parallelRig(t, world, nil)
		res, err := core.Run(sess, core.Params{
			SchoolName:        world.Schools[0].Name,
			CurrentYear:       2012,
			Mode:              core.Enhanced,
			MaxThreshold:      80,
			Workers:           workers,
			DisableFetchCache: disable,
		})
		if err != nil {
			t.Fatalf("workers=%d disable=%v: %v", workers, disable, err)
		}
		return res
	}
	uncached := run(1, true)
	for _, workers := range []int{1, 8} {
		assertRunsEqual(t, "cached vs uncached", uncached, run(workers, false))
	}
}

// countingClient tallies the requests that actually reach the platform, to
// measure what a cache above it absorbed.
type countingClient struct {
	crawler.Client
	mu                sync.Mutex
	profiles, friends int
}

func (c *countingClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	c.mu.Lock()
	c.profiles++
	c.mu.Unlock()
	return c.Client.Profile(acct, id)
}

func (c *countingClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	c.mu.Lock()
	c.friends++
	c.mu.Unlock()
	return c.Client.FriendPage(acct, id, page)
}

func (c *countingClient) counts() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.profiles, c.friends
}

// TestEnhancedRepeatServedFromCache is the double-fetch regression test:
// an enhanced run repeated over a shared fetch cache must report identical
// Table 3 effort (logical requests count above the cache) while the
// requests actually reaching the platform collapse — previously-downloaded
// profiles (seeds, promoted core users, window candidates) and friend
// lists are served from memory the second time.
func TestEnhancedRepeatServedFromCache(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(world, osn.Facebook(), osn.Config{})
	d, err := crawler.NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingClient{Client: d}
	reg := obs.NewRegistry()
	shared := cache.New(counting).Instrument(reg)

	run := func() *core.Result {
		// The session's client is already a cache, so RunContext won't
		// stack a second, run-scoped cache on top of it.
		sess := crawler.NewSession(shared)
		res, err := core.Run(sess, core.Params{
			SchoolName:   world.Schools[0].Name,
			CurrentYear:  2012,
			Mode:         core.Enhanced,
			MaxThreshold: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	p1, f1 := counting.counts()
	if p1 == 0 || f1 == 0 {
		t.Fatalf("first run reached the platform %d/%d times; rig broken", p1, f1)
	}
	second := run()
	p2, f2 := counting.counts()
	assertRunsEqual(t, "second run over warm cache", first, second)
	if dp, df := p2-p1, f2-f1; dp != 0 || df != 0 {
		t.Fatalf("second run leaked %d profile and %d friend-page requests past the cache", dp, df)
	}
	stats := shared.Stats()
	if stats.Hits.ProfileRequests == 0 || stats.Hits.FriendListRequests == 0 {
		t.Fatalf("cache hits %+v; the repeat run should have been served from memory", stats.Hits)
	}
	counters := reg.Counters()
	if counters[`crawl_cache_hits_total{kind="profile"}`] == 0 ||
		counters[`crawl_cache_hits_total{kind="friendlist"}`] == 0 ||
		counters[`crawl_cache_misses_total{kind="profile"}`] != float64(p1) {
		t.Fatalf("cache counters out of step with traffic: %v (platform saw %d profile requests)", counters, p1)
	}
}
