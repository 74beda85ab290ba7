// Command worldgen generates a synthetic world and writes a snapshot.
//
// Usage:
//
//	worldgen -scenario hs1 -seed 2013 -o hs1.json
//	worldgen -scenario hs1 -format bin -o hs1.world          # compact binary snapshot
//	worldgen -scenario city -schools 4 -o city.json
//	worldgen -scenario metro -schools 1200 -workers 8 -format bin -o metro.world
//
// With -workers N (N >= 1) the world is built by the sharded streaming
// generator, bit-identical at any worker count. Without -workers (or
// -workers 0) the sequential generator runs. Both assemble the CSR graph
// with the same builder, but they produce different (each fully
// deterministic) world families for the same seed, so pick one per dataset
// and stay with it. A negative -workers, or a city or metro scenario with
// fewer than one school, is rejected before anything is generated.
//
// File output is atomic (temp file + rename): a failed run leaves no
// truncated or empty snapshot behind.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hsprofiler/internal/worldgen"
)

func main() {
	scenario := flag.String("scenario", "hs1", "world scenario: hs1, hs2, hs3, tiny, city, metro")
	seed := flag.Uint64("seed", 2013, "generation seed")
	out := flag.String("o", "", "output file (default stdout)")
	format := flag.String("format", worldgen.FormatJSON, "snapshot format: json or bin")
	schools := flag.Int("schools", 3, "number of schools (city and metro scenarios)")
	workers := flag.Int("workers", 0, "parallel generation with this many workers (0 = legacy sequential generator)")
	stats := flag.Bool("stats", false, "print calibration statistics and timings to stderr")
	flag.Parse()

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
	case "city":
		cfg = worldgen.CityConfig(*schools)
	case "metro":
		cfg = worldgen.MetroConfig(*schools)
	default:
		fmt.Fprintf(os.Stderr, "worldgen: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if *format != worldgen.FormatJSON && *format != worldgen.FormatBinary {
		fmt.Fprintf(os.Stderr, "worldgen: unknown format %q (want %q or %q)\n", *format, worldgen.FormatJSON, worldgen.FormatBinary)
		os.Exit(2)
	}
	if err := validate(*scenario, *schools, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
		os.Exit(2)
	}

	genStart := time.Now()
	var w *worldgen.World
	var err error
	if *workers > 0 {
		w, err = worldgen.GenerateParallel(cfg, *seed, *workers)
	} else {
		w, err = worldgen.Generate(cfg, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // worldgen's errors name the package
		os.Exit(1)
	}
	genDur := time.Since(genStart)

	if *stats {
		frozen := w.Frozen()
		fmt.Fprintf(os.Stderr, "generated %d people, %d accounts, %d friendships in %s\n",
			len(w.People), frozen.NumUsers(), frozen.NumEdges(), genDur.Round(time.Millisecond))
		for i, s := range w.Schools {
			st := w.SchoolStats(i)
			fmt.Fprintf(os.Stderr, "%s (%s): students=%d onOSN=%d regAdults=%d minimal=%d alumni=%d former=%d avgDegree=%.0f\n",
				s.Name, s.City, st.Students, st.StudentsOnOSN, st.RegisteredAdults,
				st.MinimalProfiles, st.Alumni, st.FormerStudents, st.AvgStudentDegree)
			if i >= 4 && len(w.Schools) > 5 {
				fmt.Fprintf(os.Stderr, "... and %d more schools\n", len(w.Schools)-5)
				break
			}
		}
	}

	writeStart := time.Now()
	if *out != "" {
		err = w.WriteFile(*out, *format)
	} else {
		if *format == worldgen.FormatBinary {
			err = w.WriteBinary(os.Stdout)
		} else {
			err = w.WriteJSON(os.Stdout)
		}
		if err != nil {
			err = fmt.Errorf("worldgen: writing snapshot: %w", err)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *stats && *out != "" {
		if st, err := os.Stat(*out); err == nil {
			fmt.Fprintf(os.Stderr, "wrote %s (%d bytes, %s) in %s\n",
				*out, st.Size(), *format, time.Since(writeStart).Round(time.Millisecond))
		}
	}
}

// validate rejects flag values that would silently build another world or
// fail inside the generator: a negative -workers would run the sequential
// generator, whose world differs from the sharded one for the same seed.
func validate(scenario string, schools, workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be 0 (sequential generator) or a worker count, got %d", workers)
	}
	if (scenario == "city" || scenario == "metro") && schools < 1 {
		return fmt.Errorf("-schools must be at least 1 for the %s scenario, got %d", scenario, schools)
	}
	return nil
}
