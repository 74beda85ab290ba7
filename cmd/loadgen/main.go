// Command loadgen drives sustained mixed traffic against a live osnd and
// prints a latency/error report.
//
// Open loop (fixed arrival rate — the honest way to measure latency):
//
//	loadgen -url http://127.0.0.1:8080 -rate 2000 -duration 30s
//
// Closed loop (max throughput):
//
//	loadgen -url http://127.0.0.1:8080 -workers 8 -duration 10s
//
// The request mix mirrors the paper's crawl composition by default
// (search-light, profile/friend-heavy); tune it with -mix.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"hsprofiler/internal/loadgen"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "osnd base URL")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
	workers := flag.Int("workers", 4, "closed-loop concurrency (used when -rate is 0)")
	duration := flag.Duration("duration", 10*time.Second, "measured window")
	warmup := flag.Duration("warmup", time.Second, "warmup excluded from stats")
	mixFlag := flag.String("mix", "search=1,profile=8,friends=4", "request mix weights")
	accounts := flag.Int("accounts", 4, "crawler accounts to register")
	targets := flag.Int("targets", 256, "profile IDs to harvest for the target pool")
	school := flag.Int("school", -1, "school id to search (-1 = first listed)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	maxInflight := flag.Int("max-inflight", 512, "open-loop concurrent request cap; arrivals past it are dropped, not delayed")
	seed := flag.Uint64("seed", 1, "deterministic request-pick seed")
	out := flag.String("out", "", "also write the full JSON report to this file")
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     *url,
		Rate:        *rate,
		Workers:     *workers,
		Duration:    *duration,
		Warmup:      *warmup,
		Mix:         mix,
		Accounts:    *accounts,
		Targets:     *targets,
		SchoolID:    *school,
		Timeout:     *timeout,
		MaxInflight: *maxInflight,
		Seed:        *seed,
	})
	if err != nil {
		fatal(err)
	}
	printReport(rep)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("report -> %s\n", *out)
	}
}

func printReport(rep *loadgen.Report) {
	mode := fmt.Sprintf("closed loop, %d workers", rep.Workers)
	if rep.OpenLoop {
		mode = fmt.Sprintf("open loop, %.0f req/s target", rep.RateTarget)
	}
	fmt.Printf("loadgen: %s against %s, %.1fs window\n", mode, rep.BaseURL, rep.Seconds)
	fmt.Printf("%-10s %10s %12s %9s %9s %9s %9s %9s %8s\n",
		"endpoint", "requests", "rps", "mean", "p50", "p95", "p99", "max", "err%")
	names := make([]string, 0, len(rep.Endpoints))
	for name := range rep.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		printRow(name, rep.Endpoints[name])
	}
	printRow("overall", rep.Overall)
	if rep.Dropped > 0 {
		fmt.Printf("dropped %d arrivals at the inflight cap (server could not keep up with the schedule)\n", rep.Dropped)
	}
	printOutcomes("outcomes beyond 200:", rep.Overall.Errors)
	printOutcomes("warm-up outcomes beyond 200:", rep.WarmupErrors)
}

// printOutcomes prints a line of outcome counts by name, if there are any.
func printOutcomes(head string, errs map[string]uint64) {
	if len(errs) == 0 {
		return
	}
	fmt.Print(head)
	keys := make([]string, 0, len(errs))
	for k := range errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, errs[k])
	}
	fmt.Println()
}

func printRow(name string, e *loadgen.EndpointReport) {
	us := func(v int64) string { return (time.Duration(v) * time.Microsecond).String() }
	fmt.Printf("%-10s %10d %12.1f %9s %9s %9s %9s %9s %7.2f%%\n",
		name, e.Requests, e.RPS, us(e.MeanUs), us(e.P50Us), us(e.P95Us), us(e.P99Us), us(e.MaxUs), 100*e.ErrorRate)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	os.Exit(1)
}
