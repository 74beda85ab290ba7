// Package hsprofiler's root benchmarks regenerate every table and figure of
// the paper (one testing.B per artefact) and measure the ablations called
// out in DESIGN.md. Heavy benchmarks amortize world generation and crawl
// results through a shared experiments.Lab; quality numbers are emitted as
// custom benchmark metrics (found@t, fp@t) so `go test -bench` output
// doubles as a results summary.
package hsprofiler

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/experiments"
	"hsprofiler/internal/extend"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab() *experiments.Lab {
	benchLabOnce.Do(func() { benchLab = experiments.NewLab() })
	return benchLab
}

// --- Tables ---

func BenchmarkTable1PolicyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1().String(); out == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable6GooglePlusPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table6().String(); out == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2SeedHarvest measures the seed-collection and core-
// extraction phase (steps 1-2) per iteration, over HTTP.
func BenchmarkTable2SeedHarvest(b *testing.B) {
	sc := experiments.Tiny()
	if _, err := lab().World(sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := lab().Session(sc)
		if err != nil {
			b.Fatal(err)
		}
		seeds, err := sess.CollectSeeds(context.Background(), 1, 0, sess.AllAccounts())
		if err != nil {
			b.Fatal(err)
		}
		if len(seeds) == 0 {
			b.Fatal("no seeds")
		}
	}
}

// BenchmarkTable2Census regenerates the full Table 2 row set for the three
// paper schools (cached after the first iteration).
func BenchmarkTable2Census(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table2(lab(), experiments.PaperScenarios())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing school")
		}
	}
}

// BenchmarkTable3Effort runs a complete basic methodology crawl over HTTP
// per iteration and reports the request total, the quantity Table 3 is
// about.
func BenchmarkTable3Effort(b *testing.B) {
	sc := experiments.Tiny()
	world, err := lab().World(sc)
	if err != nil {
		b.Fatal(err)
	}
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := lab().Session(sc)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(sess, core.Params{
			SchoolName:   world.Schools[0].Name,
			CurrentYear:  sc.CurrentYear(),
			MaxThreshold: sc.MaxThreshold,
		})
		if err != nil {
			b.Fatal(err)
		}
		total = res.Effort.Total()
	}
	b.ReportMetric(float64(total), "requests")
}

// BenchmarkTable4HS1Methodologies regenerates Table 4 on the calibrated
// HS1 scenario and reports the headline cell.
func BenchmarkTable4HS1Methodologies(b *testing.B) {
	sc := experiments.HS1()
	var headline float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table4(lab(), sc)
		if err != nil {
			b.Fatal(err)
		}
		// enhanced+filtering, t=400
		for _, c := range rows[3].Cells {
			if c.Threshold == 400 {
				headline = float64(c.Found)
			}
		}
	}
	b.ReportMetric(headline, "found@t400")
}

// BenchmarkTable5ProfileExtension runs the §6 dossier crawl for HS1 per
// iteration and reports the Table 5 headline.
func BenchmarkTable5ProfileExtension(b *testing.B) {
	sc := experiments.HS1()
	var avgFriends float64
	for i := 0; i < b.N; i++ {
		cols, _, err := experiments.Table5(lab(), []experiments.Scenario{sc})
		if err != nil {
			b.Fatal(err)
		}
		avgFriends = cols[0].Stats.AvgFriendsPublic
	}
	b.ReportMetric(avgFriends, "avgFriends")
}

// --- Figures ---

func BenchmarkFigure1HS1Sweep(b *testing.B) {
	sc := experiments.HS1()
	var last experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Figure1(lab(), sc)
		if err != nil {
			b.Fatal(err)
		}
		last = points[len(points)-1]
	}
	b.ReportMetric(last.PctFound, "%found@t500")
	b.ReportMetric(last.PctFalsePos, "%fp@t500")
}

func BenchmarkFigure2LimitedGroundTruth(b *testing.B) {
	scs := []experiments.Scenario{experiments.HS2(), experiments.HS3()}
	var found float64
	for i := 0; i < b.N; i++ {
		schools, _, err := experiments.Figure2(lab(), scs)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range schools[0].Points {
			if p.Threshold == 1500 {
				found = p.PctFound
			}
		}
	}
	b.ReportMetric(found, "%found@t1500")
}

func BenchmarkFigure3CoppaComparison(b *testing.B) {
	sc := experiments.HS1()
	var ratio float64
	for i := 0; i < b.N; i++ {
		with, without, _, err := experiments.Figure3(lab(), sc)
		if err != nil {
			b.Fatal(err)
		}
		maxWith := 1
		for _, p := range with {
			if p.FalsePositives > maxWith {
				maxWith = p.FalsePositives
			}
		}
		ratio = float64(without[0].FalsePositives) / float64(maxWith)
	}
	b.ReportMetric(ratio, "fpRatioWithoutVsWith")
}

func BenchmarkFigure4Countermeasure(b *testing.B) {
	sc := experiments.HS1()
	var drop float64
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Figure4(lab(), sc)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		drop = last.WithReverse - last.WithoutReverse
	}
	b.ReportMetric(drop, "coverageDropPts")
}

// BenchmarkReverseLookup measures the §6.1 reverse-lookup dossier build per
// iteration on the tiny scenario.
func BenchmarkReverseLookup(b *testing.B) {
	sc := experiments.Tiny()
	res, err := lab().Run(sc, experiments.RunEnhanced)
	if err != nil {
		b.Fatal(err)
	}
	sel := res.Select(60, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := lab().Session(sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := extend.Build(context.Background(), sess, 1, sel); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationScoringRule compares the paper's normalized-max score
// x(u) = max_i |G_i|/|C_i| against a naive raw-hit-count ranking, reporting
// students found in the top 400 under each. The normalized rule's margin is
// design decision #1.
func BenchmarkAblationScoringRule(b *testing.B) {
	sc := experiments.HS1()
	res, err := lab().Run(sc, experiments.RunEnhanced)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := lab().Truth(sc)
	if err != nil {
		b.Fatal(err)
	}
	var normFound, rawFound int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Paper rule: the existing ranking.
		o := truth.Evaluate(res.Select(400, false))
		normFound = o.Found

		// Naive rule: order by total hits across cohorts.
		type scored struct {
			id   osn.PublicID
			hits int
		}
		naive := make([]scored, 0, len(res.Ranked))
		for _, c := range res.Ranked {
			total := 0
			for _, h := range c.Hits {
				total += h
			}
			naive = append(naive, scored{c.ID, total})
		}
		rawFound = 0
		sort.Slice(naive, func(a, c int) bool {
			if naive[a].hits != naive[c].hits {
				return naive[a].hits > naive[c].hits
			}
			return naive[a].id < naive[c].id
		})
		seen := 0
		for _, s := range naive {
			if seen == 400 {
				break
			}
			seen++
			if _, ok := truth.IsStudent(s.id); ok {
				rawFound++
			}
		}
	}
	b.ReportMetric(float64(normFound), "normMaxFound@400")
	b.ReportMetric(float64(rawFound), "rawCountFound@400")
}

// BenchmarkAblationRuleWeighted reruns the attack with the weighted
// ranking rule (the paper's "many possible heuristics" extension point) on
// the HS1 world and reports coverage at t = 400 for comparison with
// BenchmarkAblationScoringRule's metrics.
func BenchmarkAblationRuleWeighted(b *testing.B) {
	sc := experiments.HS1()
	world, err := lab().World(sc)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := lab().Truth(sc)
	if err != nil {
		b.Fatal(err)
	}
	var found float64
	for i := 0; i < b.N; i++ {
		platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{SearchPerAccount: sc.SearchPerAccount})
		d, err := crawler.NewDirect(platform, sc.SeedAccounts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(crawler.NewSession(d), core.Params{
			SchoolName:   world.Schools[0].Name,
			CurrentYear:  sc.CurrentYear(),
			Mode:         core.Enhanced,
			MaxThreshold: sc.MaxThreshold,
			Rule:         core.RuleWeighted,
		})
		if err != nil {
			b.Fatal(err)
		}
		found = float64(truth.Evaluate(res.Select(400, true)).Found)
	}
	b.ReportMetric(found, "weightedFound@400")
}

// BenchmarkAblationEpsilon sweeps the §4.3 over-fetch factor ε (design
// decision #2) on the tiny scenario, reporting coverage at t = 60.
func BenchmarkAblationEpsilon(b *testing.B) {
	sc := experiments.Tiny()
	world, err := lab().World(sc)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := lab().Truth(sc)
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0.5, 1, 2} {
		b.Run(benchName("eps", eps), func(b *testing.B) {
			var found float64
			for i := 0; i < b.N; i++ {
				sess, err := lab().Session(sc)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Run(sess, core.Params{
					SchoolName:   world.Schools[0].Name,
					CurrentYear:  sc.CurrentYear(),
					Mode:         core.Enhanced,
					Epsilon:      eps,
					MaxThreshold: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				o := truth.Evaluate(res.Select(60, true))
				found = o.FoundFrac() * 100
			}
			b.ReportMetric(found, "%found@t60")
		})
	}
}

// BenchmarkAblationFilterRules toggles each §4.4 filter rule alone (design
// decision #3) and reports false positives in the top 400 of the HS1 run.
func BenchmarkAblationFilterRules(b *testing.B) {
	sc := experiments.HS1()
	res, err := lab().Run(sc, experiments.RunEnhanced)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := lab().Truth(sc)
	if err != nil {
		b.Fatal(err)
	}
	rules := []string{"", "graduate school", "different high school", "grad year out of range", "different current city", "all"}
	for _, rule := range rules {
		name := rule
		if name == "" {
			name = "none"
		}
		b.Run(name, func(b *testing.B) {
			var fps float64
			for i := 0; i < b.N; i++ {
				fpCount, taken := 0, 0
				for _, c := range res.Ranked {
					if taken == 400 {
						break
					}
					skip := false
					switch rule {
					case "":
					case "all":
						skip = c.Filtered
					default:
						skip = c.FilterReason == rule
					}
					if skip {
						continue
					}
					taken++
					if _, ok := truth.IsStudent(c.ID); !ok {
						fpCount++
					}
				}
				fps = float64(fpCount)
			}
			b.ReportMetric(fps, "fp@400")
		})
	}
}

// BenchmarkPlatformConcurrent measures aggregate read throughput of the
// two-plane platform: each worker owns an account and replays a mixed
// Profile / FriendPage / SchoolSearch workload against the frozen read
// plane. Run with -cpu 1,4,8 to see the lock-free read path scale; the
// control plane only takes the worker's own shard lock per request.
func BenchmarkPlatformConcurrent(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		b.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	const workers = 64
	toks := make([]string, workers)
	for i := range toks {
		tok, err := p.RegisterAccount(fmt.Sprintf("bench%d", i), sim.Date{Year: 1980, Month: 1, Day: 1})
		if err != nil {
			b.Fatal(err)
		}
		toks[i] = tok
	}
	// Targets: searchable profiles with stranger-visible friend lists, so
	// every request in the loop is a served read.
	first, _, err := p.SchoolSearch(toks[0], 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	var targets []osn.PublicID
	for _, sr := range first {
		pp, err := p.Profile(toks[0], sr.ID)
		if err != nil {
			b.Fatal(err)
		}
		if pp.FriendListVisible {
			targets = append(targets, sr.ID)
		}
	}
	if len(targets) == 0 {
		b.Fatal("no visible friend lists in world")
	}
	var next, failures atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tok := toks[int(next.Add(1)-1)%workers]
		i := 0
		for pb.Next() {
			id := targets[i%len(targets)]
			var err error
			switch i % 3 {
			case 0:
				_, err = p.Profile(tok, id)
			case 1:
				_, _, err = p.FriendPage(tok, id, 0)
			default:
				_, _, err = p.SchoolSearch(tok, 0, i%4)
			}
			if err != nil {
				failures.Add(1)
			}
			i++
		}
	})
	b.StopTimer()
	if failures.Load() != 0 {
		b.Fatalf("%d requests failed", failures.Load())
	}
}

// BenchmarkRunParallel sweeps the attack pipeline's worker pool over the
// HS1 world with a simulated per-request RTT, the regime the parallel
// engine is built for: wall-clock is dominated by waiting on the platform,
// so overlapping requests — not extra cores — is what buys throughput.
// Each sub-benchmark reports the logical request total (identical at every
// worker count, by construction) so the ns/op ratios are directly
// comparable.
func BenchmarkRunParallel(b *testing.B) {
	sc := experiments.HS1()
	world, err := lab().World(sc)
	if err != nil {
		b.Fatal(err)
	}
	const rtt = 200 * time.Microsecond
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{SearchPerAccount: sc.SearchPerAccount})
			d, err := crawler.NewDirect(platform, sc.SeedAccounts)
			if err != nil {
				b.Fatal(err)
			}
			client := crawler.WithLatency(d, rtt)
			var logical int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(crawler.NewSession(client), core.Params{
					SchoolName:   world.Schools[0].Name,
					CurrentYear:  sc.CurrentYear(),
					Mode:         core.Enhanced,
					MaxThreshold: sc.MaxThreshold,
					Workers:      workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				logical = res.Effort.Total()
			}
			b.ReportMetric(float64(logical), "requests")
		})
	}
}

// BenchmarkWorldGeneration measures the substrate itself.
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := worldgen.Generate(worldgen.TinyConfig(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackEndToEnd measures a complete enhanced run (in-process) on
// the tiny world per iteration.
func BenchmarkAttackEndToEnd(b *testing.B) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		b.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	d, err := crawler.NewDirect(p, 2)
	if err != nil {
		b.Fatal(err)
	}
	truth := eval.NewGroundTruth(p, 0)
	b.ResetTimer()
	var found float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(crawler.NewSession(d), core.Params{
			SchoolName:   w.Schools[0].Name,
			CurrentYear:  2012,
			Mode:         core.Enhanced,
			MaxThreshold: 90,
		})
		if err != nil {
			b.Fatal(err)
		}
		found = truth.Evaluate(res.Select(60, true)).FoundFrac() * 100
	}
	b.ReportMetric(found, "%found")
}

func benchName(prefix string, v float64) string {
	switch v {
	case 0.5:
		return prefix + "0.5"
	case 1:
		return prefix + "1"
	case 2:
		return prefix + "2"
	default:
		return prefix
	}
}
