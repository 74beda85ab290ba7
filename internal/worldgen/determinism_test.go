package worldgen

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestParallelWorkerInvariance is the tentpole determinism property: the
// sharded generator must produce bit-identical worlds at every worker count.
// Run under -race this also exercises the shard scheduling for data races.
func TestParallelWorkerInvariance(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		seed uint64
	}{
		{"tiny", TinyConfig(), 42},
		{"city3", CityConfig(3), 2013},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := GenerateParallel(tc.cfg, tc.seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			refFP, err := ref.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{4, 8} {
				w, err := GenerateParallel(tc.cfg, tc.seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				if d := DiffWorlds(ref, w); d != "" {
					t.Fatalf("workers=%d diverges from sequential: %s", workers, d)
				}
				fp, err := w.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if fp != refFP {
					t.Fatalf("workers=%d fingerprint %s, sequential %s (worlds deep-equal: encoder nondeterminism)", workers, fp, refFP)
				}
			}
		})
	}
}

// TestParallelSeedSensitivity guards against stream-derivation collapse: a
// different seed must give a different world.
func TestParallelSeedSensitivity(t *testing.T) {
	a, err := GenerateParallel(TinyConfig(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateParallel(TinyConfig(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffWorlds(a, b); d == "" {
		t.Fatal("seeds 1 and 2 produced identical worlds")
	}
}

// TestParallelWorldShape sanity-checks the sharded generator's output
// against the layout plan and the distributions the sequential generator
// establishes: counts are closed-form, adoption and graph structure are
// statistical but coarse.
func TestParallelWorldShape(t *testing.T) {
	cfg := TinyConfig()
	w, err := GenerateParallel(cfg, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	lay := planLayout(cfg)
	if len(w.People) != lay.total {
		t.Fatalf("people %d, layout total %d", len(w.People), lay.total)
	}
	sc := cfg.Schools[0]
	if n := w.CountRole(RoleStudent); n != sc.Students {
		t.Fatalf("students %d, want %d", n, sc.Students)
	}
	if n := w.CountRole(RoleAlumnus); n != sc.AlumniClasses*sc.AlumniPerClass {
		t.Fatalf("alumni %d, want %d", n, sc.AlumniClasses*sc.AlumniPerClass)
	}
	if n := w.CountRole(RoleParent); n != cfg.Parents {
		t.Fatalf("parents %d, want %d", n, cfg.Parents)
	}
	if n := w.CountRole(RoleOutside); n != cfg.OutsidePool {
		t.Fatalf("outside %d, want %d", n, cfg.OutsidePool)
	}
	// Adoption: ~90% of 80 students. Allow a wide band; this is a sanity
	// check, not a calibration test.
	st := w.SchoolStats(0)
	if st.StudentsOnOSN < 60 || st.StudentsOnOSN > 80 {
		t.Fatalf("students on OSN %d, expected ≈%.0f", st.StudentsOnOSN, sc.AdoptionRate*float64(sc.Students))
	}
	if st.AvgInSchoolDegree < 5 {
		t.Fatalf("avg in-school degree %.1f, expected ≳%.0f", st.AvgInSchoolDegree, sc.Friendship.InCohortDegree/2)
	}
	// Households stay coherent in the parallel family too.
	for _, p := range w.People {
		if p.Role != RoleParent {
			continue
		}
		for _, cid := range p.ChildIDs {
			child := w.Person(cid)
			if child == nil {
				t.Fatalf("parent %d references missing child %d", p.ID, cid)
			}
			if child.LastName != p.LastName || child.StreetAddress != p.StreetAddress {
				t.Fatalf("family of parent %d incoherent: %q/%q vs %q/%q",
					p.ID, child.LastName, child.StreetAddress, p.LastName, p.StreetAddress)
			}
		}
	}
}

// Golden fingerprints: these pin the exact content of the worlds every
// scenario generates — people, profiles and edges — through the canonical
// binary encoding. A change to any generator distribution, stream label,
// encoder byte or RNG step shows up here. On an intentional change, copy
// the "got" values the failure prints into this table.
var goldenFingerprints = map[string]string{
	"hs1/seq/seed2013":   "7a3b31dfaf17d005f530b6efdcdaf50d30dea499fd6a26777ac3abb466c4aa28",
	"city3/par/seed2013": "d0851eff86e1bd778c6301bb8e61d23e11bb0a00bedb677c143938756a02933e",
	"tiny/par/seed42":    "871922a88d59b1023ab0bdbc6c375f6b36b918ba80bc9a13049f9fe03f231c16",
}

func TestGoldenFingerprints(t *testing.T) {
	worlds := map[string]func() (*World, error){
		"hs1/seq/seed2013":   func() (*World, error) { return Generate(HS1Config(), 2013) },
		"city3/par/seed2013": func() (*World, error) { return GenerateParallel(CityConfig(3), 2013, 4) },
		"tiny/par/seed42":    func() (*World, error) { return GenerateParallel(TinyConfig(), 42, 8) },
	}
	for name, gen := range worlds {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			fp, err := w.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			want := goldenFingerprints[name]
			if fp != want {
				t.Fatalf("world fingerprint drifted:\n  got  %s\n  want %s\n"+
					"If the generator or encoder changed intentionally, update goldenFingerprints[%q]. "+
					"Otherwise a distribution, stream label or codec byte changed by accident — diff a "+
					"fresh world against a pre-change build with DiffWorlds to find the first divergent record.",
					fp, want, name)
			}
		})
	}
}

// Evolved golden fingerprints pin evolution across versions the way
// goldenFingerprints pins generation: each world is evolved three years,
// at one and at four workers, and both the final world and every year's
// edge delta must match. The table above cannot notice a drift in
// evolution, since it only covers freshly generated worlds.
var goldenEvolved = map[string]struct{ world, deltas string }{
	"city3/par/seed2013": {
		"f29acd4a67ae7f074557a1a43f5c8f0e3ffcccd46260b9e8897a5adcb281667a",
		"9989cf8eb2211c98edc913a3809900441228c2db3ff499f4f86a7e981d04a015",
	},
	"tiny/par/seed42": {
		"f4b6a6303a36dc9cde708b4c6d7f485be49d2fe29bf640aab610dfdf34a9c9a5",
		"3bee663546847324b04ed9152e226774af402a5a48e3b6578709c33fc2bf3e72",
	},
}

func TestGoldenEvolvedFingerprints(t *testing.T) {
	worlds := map[string]func() (*World, error){
		"city3/par/seed2013": func() (*World, error) { return GenerateParallel(CityConfig(3), 2013, 4) },
		"tiny/par/seed42":    func() (*World, error) { return GenerateParallel(TinyConfig(), 42, 8) },
	}
	for name, gen := range worlds {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				t.Parallel()
				w, err := gen()
				if err != nil {
					t.Fatal(err)
				}
				ev := NewEvolver(DefaultEvolveConfig(), workers)
				h := sha256.New()
				for year := 1; year <= 3; year++ {
					d, err := ev.Step(w, year)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "year %d added %d removed %d\n", year, len(d.Added), len(d.Removed))
					for _, e := range d.Added {
						fmt.Fprintf(h, "+%d-%d\n", e.A, e.B)
					}
					for _, e := range d.Removed {
						fmt.Fprintf(h, "-%d-%d\n", e.A, e.B)
					}
				}
				fp, err := w.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				deltas := fmt.Sprintf("%x", h.Sum(nil))
				want := goldenEvolved[name]
				if fp != want.world || deltas != want.deltas {
					t.Fatalf("evolved world drifted:\n  world  got %s want %s\n  deltas got %s want %s",
						fp, want.world, deltas, want.deltas)
				}
			})
		}
	}
}
