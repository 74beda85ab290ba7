package faults_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/experiments"
	"hsprofiler/internal/faults"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
	"hsprofiler/internal/worldgen"
)

// The chaos tests run the paper's full HS1 attack against a fault-injected
// platform and require the outcome to be bit-identical to the fault-free
// run: the injector's MaxConsecutive cap (4) is below the session's retry
// budget (12), so every fault is survivable, and surviving all of them
// without perturbing a single verdict is exactly what the hardened crawl
// pipeline promises.

// hs1World generates the HS1 world once for all chaos runs.
func hs1World(t *testing.T) *worldgen.World {
	t.Helper()
	hs1WorldOnce.Do(func() {
		sc := experiments.HS1()
		hs1WorldCached, hs1WorldErr = worldgen.Generate(sc.Config, sc.Seed)
	})
	if hs1WorldErr != nil {
		t.Fatal(hs1WorldErr)
	}
	return hs1WorldCached
}

var (
	hs1WorldOnce   sync.Once
	hs1WorldCached *worldgen.World
	hs1WorldErr    error
)

// runHS1HTTP executes the enhanced HS1 attack over a real HTTP server whose
// handler is wrapped by the fault middleware at the given composite rate
// (0 = no middleware), and evaluates it against ground truth.
func runHS1HTTP(t *testing.T, world *worldgen.World, rate float64) (*core.Result, []eval.Outcome, faults.Stats) {
	t.Helper()
	sc := experiments.HS1()
	platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{
		SearchPerAccount: sc.SearchPerAccount,
	})
	var handler http.Handler = osnhttp.NewServer(platform)
	var inj *faults.Injector
	if rate > 0 {
		inj = faults.New(faults.Composite(rate, 1))
		handler = inj.Middleware(handler)
	}
	server := httptest.NewServer(handler)
	defer server.Close()
	client := osnhttp.NewClient(server.URL, server.Client(), nil)
	if err := client.RegisterAccounts(sc.SeedAccounts); err != nil {
		t.Fatal(err)
	}
	sess := crawler.NewSession(client)
	sess.Sleep = func(time.Duration) {} // instant retries; determinism must not need real sleeps
	res, err := core.Run(sess, core.Params{
		SchoolName:   world.Schools[0].Name,
		CurrentYear:  sc.CurrentYear(),
		Mode:         core.Enhanced,
		MaxThreshold: sc.MaxThreshold,
		SeedAccounts: []int{0, 1},
	})
	if err != nil {
		t.Fatalf("HS1 run at fault rate %.2f: %v", rate, err)
	}
	truth := eval.NewGroundTruth(platform, 0)
	var outcomes []eval.Outcome
	for _, th := range sc.TableThresholds {
		outcomes = append(outcomes, truth.Evaluate(res.Select(th, true)))
	}
	var stats faults.Stats
	if inj != nil {
		stats = inj.Stats()
	}
	return res, outcomes, stats
}

// assertSameAttack requires two runs to agree bit-for-bit on everything the
// paper reports: the ranked candidate list and the found / correct-year /
// false-positive numbers at every table threshold.
func assertSameAttack(t *testing.T, label string, ref, got *core.Result, refOut, gotOut []eval.Outcome) {
	t.Helper()
	if len(got.Ranked) != len(ref.Ranked) {
		t.Fatalf("%s: ranking has %d candidates, fault-free %d", label, len(got.Ranked), len(ref.Ranked))
	}
	for i := range got.Ranked {
		a, b := got.Ranked[i], ref.Ranked[i]
		if a.ID != b.ID || a.Score != b.Score || a.PredGradYear != b.PredGradYear || a.Filtered != b.Filtered {
			t.Fatalf("%s: ranked[%d] differs: %+v vs %+v", label, i, a, b)
		}
	}
	if got.ExtendedCoreSize != ref.ExtendedCoreSize || got.SeedCoreSize != ref.SeedCoreSize {
		t.Fatalf("%s: core sizes differ: %d/%d vs %d/%d", label,
			got.SeedCoreSize, got.ExtendedCoreSize, ref.SeedCoreSize, ref.ExtendedCoreSize)
	}
	for i := range refOut {
		if gotOut[i] != refOut[i] {
			t.Fatalf("%s: outcome at threshold #%d differs:\n  faulted:    %v\n  fault-free: %v",
				label, i, gotOut[i], refOut[i])
		}
	}
}

// TestChaosHS1OverHTTP is the acceptance test for the failure model: the
// full HS1 enhanced+filtered attack, run through the HTTP stack at several
// composite fault rates, must reproduce the fault-free found/correct-year
// numbers exactly, with the faults visible only in the retry tally.
func TestChaosHS1OverHTTP(t *testing.T) {
	world := hs1World(t)
	ref, refOut, _ := runHS1HTTP(t, world, 0)
	if ref.Retries.Total() != 0 {
		t.Fatalf("fault-free run reported %d retries", ref.Retries.Total())
	}
	rates := []float64{0.05, 0.10}
	if !testing.Short() {
		rates = append(rates, 0.20)
	}
	for _, rate := range rates {
		res, out, stats := runHS1HTTP(t, world, rate)
		if stats.Total() == 0 {
			t.Fatalf("rate %.2f: injector fired no faults over %d requests", rate, stats.Requests)
		}
		if res.Retries.Total() == 0 {
			t.Fatalf("rate %.2f: %d faults injected but the run reports no retries (%s)",
				rate, stats.Total(), stats)
		}
		if res.Failures.Total() != 0 {
			t.Fatalf("rate %.2f: hard failures %+v; MaxConsecutive should make every fault survivable",
				rate, res.Failures)
		}
		assertSameAttack(t, stats.String(), ref, res, refOut, out)
		t.Logf("rate %.2f: %s; %d retries, result bit-identical", rate, stats, res.Retries.Total())
	}
}

// TestChaosHS1InProcess runs the same invariant through the in-process
// Client decorator (no HTTP): faults surface as typed errors instead of
// wire-level damage, and the outcome must still match the fault-free run.
func TestChaosHS1InProcess(t *testing.T) {
	world := hs1World(t)
	sc := experiments.HS1()
	run := func(rate float64) (*core.Result, []eval.Outcome, faults.Stats) {
		platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{
			SearchPerAccount: sc.SearchPerAccount,
		})
		direct, err := crawler.NewDirect(platform, sc.SeedAccounts)
		if err != nil {
			t.Fatal(err)
		}
		var c crawler.Client = direct
		var inj *faults.Injector
		if rate > 0 {
			inj = faults.New(faults.Composite(rate, 7))
			c = inj.Client(c)
		}
		sess := crawler.NewSession(c)
		sess.Sleep = func(time.Duration) {}
		res, err := core.Run(sess, core.Params{
			SchoolName:   world.Schools[0].Name,
			CurrentYear:  sc.CurrentYear(),
			Mode:         core.Enhanced,
			MaxThreshold: sc.MaxThreshold,
			SeedAccounts: []int{0, 1},
		})
		if err != nil {
			t.Fatalf("in-process HS1 at rate %.2f: %v", rate, err)
		}
		truth := eval.NewGroundTruth(platform, 0)
		var outcomes []eval.Outcome
		for _, th := range sc.TableThresholds {
			outcomes = append(outcomes, truth.Evaluate(res.Select(th, true)))
		}
		var stats faults.Stats
		if inj != nil {
			stats = inj.Stats()
		}
		return res, outcomes, stats
	}
	ref, refOut, _ := run(0)
	res, out, stats := run(0.10)
	if stats.Total() == 0 || res.Retries.Total() == 0 {
		t.Fatalf("decorator injected %d faults, run retried %d times", stats.Total(), res.Retries.Total())
	}
	assertSameAttack(t, "in-process "+stats.String(), ref, res, refOut, out)
}
