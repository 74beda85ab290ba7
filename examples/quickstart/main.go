// Quickstart: generate a small synthetic world, stand up the simulated OSN,
// run the paper's high-school profiling attack against it, and score the
// result against ground truth — the whole pipeline in ~40 lines of API use.
// With -metrics, the crawl's Prometheus exposition is printed afterwards.
// With -events, every layer's structured events land in a JSONL file.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/eval"
	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the example; it returns the exit status, and a bad flag exits 2.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quickstart", flag.ExitOnError)
	fs.SetOutput(stderr)
	metrics := fs.Bool("metrics", false, "dump the crawl's Prometheus metrics to stdout after the run")
	events := fs.String("events", "", "write the structured event log (JSONL) to this file")
	fs.Parse(args)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "quickstart: %v\n", err)
		return 1
	}

	// A small town: one 80-student high school, alumni, parents, teachers
	// and an outside population, with the paper's age-lying behaviour.
	world, err := worldgen.Generate(worldgen.TinyConfig(), 7)
	if err != nil {
		return fail(err)
	}

	// With -events, the attack runs under a structured event logger: the
	// platform's policy gates, the crawler's requests and retries, and the
	// methodology's step boundaries all narrate into one JSONL stream.
	var lg *evlog.Logger
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		lg = evlog.New(evlog.Options{Sink: f})
	}

	// The platform enforces Facebook's 2012 minor-protection policy
	// (Table 1): age gate at 13, minimal public profiles for registered
	// minors, no minors in school search.
	platform := osn.NewPlatform(world, osn.Facebook(), osn.Config{}).WithLog(lg)

	// The third party registers two fake adult accounts and attacks.
	client, err := crawler.NewDirect(platform, 2)
	if err != nil {
		return fail(err)
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	ctx = evlog.NewContext(ctx, lg)
	res, err := core.RunContext(ctx, crawler.NewSession(client).Instrument(reg), core.Params{
		SchoolName:   world.Schools[0].Name,
		CurrentYear:  2012,
		Mode:         core.Enhanced,
		MaxThreshold: 90,
	})
	if err != nil {
		return fail(err)
	}
	inferred := res.Select(60, true)

	// Score against the confidential roster (which the attack never saw).
	truth := eval.NewGroundTruth(platform, 0)
	outcome := truth.Evaluate(inferred)

	fmt.Fprintf(stdout, "target school:   %s (%s)\n", res.School.Name, res.School.City)
	fmt.Fprintf(stdout, "seeds:           %d search results\n", len(res.Seeds))
	fmt.Fprintf(stdout, "core users:      %d lying minors with public friend lists\n", res.SeedCoreSize)
	fmt.Fprintf(stdout, "candidates:      %d\n", res.CandidateCount())
	fmt.Fprintf(stdout, "requests issued: %d\n", res.Effort.Total())
	fmt.Fprintf(stdout, "students found:  %d of %d (%.0f%%), %0.f%% in the correct year, %d false positives\n",
		outcome.Found, outcome.M, 100*outcome.FoundFrac(),
		100*outcome.CorrectYearFrac(), outcome.FalsePositives)

	if *metrics {
		fmt.Fprintln(stdout, "\n# crawl metrics (Prometheus exposition)")
		if err := reg.WritePrometheus(stdout); err != nil {
			return fail(err)
		}
	}
	if lg != nil {
		fmt.Fprintf(stderr, "events: %d logged -> %s\n", lg.Events(), *events)
	}
	return 0
}
