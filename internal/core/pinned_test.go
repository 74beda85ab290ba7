package core_test

// Results pinned as literals. They were recorded from the sequential crawl
// stack that preceded the session's worker pool, so a one-worker run that
// drifts from that crawl — in what it asks the platform, in what order, or
// in what it concludes — fails here even though the width-invariance
// tests, which compare the pool with itself, would still pass.

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/faults"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// callLog records every call that reaches the platform client, in order.
type callLog struct {
	crawler.Client
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(format string, args ...any) {
	l.mu.Lock()
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *callLog) LookupSchool(name string) (osn.SchoolRef, error) {
	l.add("school %s", name)
	return l.Client.LookupSchool(name)
}

func (l *callLog) Search(acct, school, page int) ([]osn.SearchResult, bool, error) {
	l.add("search %d %d %d", acct, school, page)
	return l.Client.Search(acct, school, page)
}

func (l *callLog) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	l.add("profile %d %s", acct, id)
	return l.Client.Profile(acct, id)
}

func (l *callLog) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	l.add("friends %d %s %d", acct, id, page)
	return l.Client.FriendPage(acct, id, page)
}

// digest is a short hash of a list of lines.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// rankedDigest hashes everything the ranking decided.
func rankedDigest(r *core.Result) string {
	lines := make([]string, len(r.Ranked))
	for i, c := range r.Ranked {
		lines[i] = fmt.Sprintf("%s %s %v %v %d %t %s", c.ID, c.Name, c.Hits, c.Score, c.PredGradYear, c.Filtered, c.FilterReason)
	}
	return digest(lines)
}

// pinnedRun runs the tiny-world enhanced attack (t=80, two Direct accounts)
// over wrap's client, logging the calls that reach it.
func pinnedRun(t *testing.T, world *worldgen.World, mode core.Mode, workers, budget int, wrap func(crawler.Client) crawler.Client) (*core.Result, *callLog) {
	t.Helper()
	log := &callLog{}
	sess := parallelRig(t, world, func(c crawler.Client) crawler.Client {
		if wrap != nil {
			c = wrap(c)
		}
		log.Client = c
		return log
	})
	res, err := core.Run(sess, core.Params{
		SchoolName:    world.Schools[0].Name,
		CurrentYear:   2012,
		Mode:          mode,
		MaxThreshold:  80,
		Workers:       workers,
		FailureBudget: budget,
	})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", mode, workers, err)
	}
	return res, log
}

// TestParallelPinnedResults checks the seed-11 tiny world's clean, faulted
// and broken-client runs against their pinned literals at 1 and 8 workers,
// and the one-worker client-call sequences against their pinned digests.
func TestParallelPinnedResults(t *testing.T) {
	world, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	faulted := func(c crawler.Client) crawler.Client { return faults.New(faults.Composite(0.10, 7)).Client(c) }
	broken := func(c crawler.Client) crawler.Client { return &brokenClient{Client: c} }
	cases := []struct {
		name       string
		wrap       func(crawler.Client) crawler.Client
		budget     int
		effort     crawler.Effort
		retries    crawler.Effort
		failures   crawler.Effort
		failed     int
		candidates int
		calls      string // digest of the one-worker client-call sequence
		ranked     string
	}{
		{name: "clean", effort: crawler.Effort{SeedRequests: 2, ProfileRequests: 235, FriendListRequests: 23},
			candidates: 276, calls: "fc084a539d64cf98", ranked: "8e03215b7520aad2"},
		{name: "faulted", wrap: faulted, budget: 100,
			effort:     crawler.Effort{SeedRequests: 2, ProfileRequests: 235, FriendListRequests: 23},
			retries:    crawler.Effort{SeedRequests: 1, ProfileRequests: 28, FriendListRequests: 1},
			candidates: 276, calls: "6d3136c333578707", ranked: "8e03215b7520aad2"},
		{name: "broken", wrap: broken, budget: 1000,
			effort:   crawler.Effort{SeedRequests: 2, ProfileRequests: 248, FriendListRequests: 19},
			failures: crawler.Effort{ProfileRequests: 55}, failed: 55,
			candidates: 236, calls: "7d0b3892fed937ed", ranked: "9026698a9d0415da"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s workers=%d", c.name, workers)
			res, log := pinnedRun(t, world, core.Enhanced, workers, c.budget, c.wrap)
			if res.Effort != c.effort || res.Retries != c.retries || res.Failures != c.failures {
				t.Errorf("%s: effort %+v retries %+v failures %+v, pinned %+v %+v %+v",
					label, res.Effort, res.Retries, res.Failures, c.effort, c.retries, c.failures)
			}
			if res.FailedFetches != c.failed || res.CandidateCount() != c.candidates {
				t.Errorf("%s: FailedFetches %d |K| %d, pinned %d %d",
					label, res.FailedFetches, res.CandidateCount(), c.failed, c.candidates)
			}
			if got := rankedDigest(res); got != c.ranked {
				t.Errorf("%s: ranked digest %s, pinned %s", label, got, c.ranked)
			}
			if workers == 1 {
				if got := digest(log.calls); got != c.calls {
					t.Errorf("%s: client-call digest %s over %d calls, pinned %s", label, got, len(log.calls), c.calls)
				}
			}
		}
	}
}

// TestParallelPinnedSequences pins the one-worker client-call sequence and
// ranking of more tiny worlds, in both modes.
func TestParallelPinnedSequences(t *testing.T) {
	pins := []struct {
		seed          uint64
		mode          core.Mode
		calls, ranked string
	}{
		{11, core.Basic, "916cad4daebd6247", "acefab47495689c3"},
		{3, core.Basic, "439d1ea6d44a9b1a", "1c861367e66b654d"},
		{3, core.Enhanced, "c16cc71d7394d7d8", "df47fea8e4d5e24e"},
		{5, core.Basic, "2549e3624251ffde", "7217d8fc0cbe9fde"},
		{5, core.Enhanced, "3da735f84f2f1406", "438136acdeb05d05"},
		{23, core.Basic, "bd0a8e679ebe2923", "0ea434f0a206b82b"},
		{23, core.Enhanced, "c0c2e63fadc5772a", "422e157d8a793015"},
	}
	for _, p := range pins {
		world, err := worldgen.Generate(worldgen.TinyConfig(), p.seed)
		if err != nil {
			t.Fatal(err)
		}
		res, log := pinnedRun(t, world, p.mode, 1, 0, nil)
		if got := digest(log.calls); got != p.calls {
			t.Errorf("seed %d %s: client-call digest %s over %d calls, pinned %s", p.seed, p.mode, got, len(log.calls), p.calls)
		}
		if got := rankedDigest(res); got != p.ranked {
			t.Errorf("seed %d %s: ranked digest %s, pinned %s", p.seed, p.mode, got, p.ranked)
		}
	}
}
