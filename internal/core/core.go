// Package core implements the paper's high-school profiling methodology
// (Section 4): seed collection through the school-search portal, core-set
// extraction from lying minors, candidate harvesting from core friend
// lists, reverse lookup, the normalized-max cohort score x(u), rank/
// threshold selection, graduation-year classification, the enhanced
// methodology's core augmentation (§4.3) and the candidate filters (§4.4).
//
// The attack touches the platform only through crawler.Session — the same
// stranger-visible surface the original study had — and never reads ground
// truth; evaluation lives in internal/eval. Every fetch stage runs over the
// session's worker pool, Params.Workers wide: one worker is the sequential
// crawl, and the result is the same at any width.
package core

import (
	"fmt"
	"math"
	"sort"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
)

// ScoreRule selects the statistic used to rank candidates. The paper uses
// the normalized max x(u) and notes that "there are many possible
// heuristics one may construe based on the G_i(u) data"; the alternatives
// here implement that extension point and feed the ablation benchmarks.
type ScoreRule int

const (
	// RuleNormalizedMax is the paper's x(u) = max_i |G_i(u)|/|C_i|.
	RuleNormalizedMax ScoreRule = iota
	// RuleTotalHits ranks by the raw count of core friends across all
	// cohorts — the naive baseline the normalized rule improves on.
	RuleTotalHits
	// RuleWeighted blends the normalized max with the total normalized
	// hit mass: candidates with support from several cohorts (true
	// students with cross-year friendships) edge out one-cohort artifacts.
	RuleWeighted
)

// String names the rule.
func (r ScoreRule) String() string {
	switch r {
	case RuleTotalHits:
		return "total-hits"
	case RuleWeighted:
		return "weighted"
	default:
		return "normalized-max"
	}
}

// Mode selects the methodology variant.
type Mode int

const (
	// Basic is the §4.1 methodology.
	Basic Mode = iota
	// Enhanced is the §4.3 methodology: profiles of the top (1+ε)t ranked
	// candidates are downloaded and self-declared current students are
	// promoted into the core before re-scoring.
	Enhanced
)

// String names the mode.
func (m Mode) String() string {
	if m == Enhanced {
		return "enhanced"
	}
	return "basic"
}

// Params configures one profiling run. A single run supports threshold
// sweeps afterwards: profiles are downloaded for the top
// (1+Epsilon)·MaxThreshold candidates, and Result.Select can then be called
// for any t ≤ MaxThreshold with or without filtering, without re-crawling —
// exactly how the paper evaluates many thresholds from one crawl.
type Params struct {
	// SchoolName is the target high school's public name (the paper's
	// third party knows it; enrollment size comes from e.g. Wikipedia).
	SchoolName string
	// CurrentYear is the graduation year of the current senior class; a
	// profile "indicates currently attending" when it names the target
	// school with a graduation year in [CurrentYear, CurrentYear+3].
	CurrentYear int
	// Mode selects basic vs enhanced.
	Mode Mode
	// Epsilon is the §4.3 over-fetch factor; the paper uses 1 throughout,
	// and 0 selects it. A tiny ε such as 1e-9 gives the bare t window.
	Epsilon float64
	// MaxThreshold is the largest threshold t that later Select calls will
	// use; it sizes the profile-download window. Typically the school's
	// approximate enrollment (paper: "in the vicinity of the total number
	// of students").
	MaxThreshold int
	// FetchProfiles forces downloading the top-window profiles even in
	// Basic mode, which §4.4 filtering requires. Enhanced mode always
	// downloads them.
	FetchProfiles bool
	// SeedAccounts are the fake-account indexes used for seed collection
	// (nil = all of the session's accounts). The HS2/HS3 evaluation keeps
	// a second, disjoint account set aside for test users.
	SeedAccounts []int
	// Rule selects the ranking statistic (default: the paper's
	// normalized max).
	Rule ScoreRule
	// FailureBudget is how many individual fetch failures (a seed profile,
	// a core friend list, a window profile that stays broken after the
	// session's own retries) one run absorbs before aborting. An absorbed
	// failure skips just that item — the seed is dropped, the core user is
	// excluded, the candidate stays unprofiled — and is counted in
	// Result.FailedFetches. 0 preserves the strict fail-fast behavior.
	// Context cancellation is never absorbed. The budget is shared across
	// all workers.
	FailureBudget int
	// Workers is the width of the session's worker pool that every fetch
	// stage runs over (default 1, the sequential crawl). The same logical
	// requests are made at any width, so the ranked output and the
	// Effort/Retries/Failures tallies are bit-identical: this is purely a
	// throughput knob for the latency-bound live-platform regime.
	Workers int
	// DisableFetchCache opts out of the in-memory memoizing fetch cache
	// that RunContext interposes below the effort tally. The cache never
	// changes Table 3 counts (a cache hit still counts as a logical
	// request); disabling it only forces every request through to the
	// platform.
	DisableFetchCache bool
}

func (p Params) withDefaults() Params {
	if p.Epsilon == 0 {
		p.Epsilon = 1
	}
	if p.MaxThreshold <= 0 {
		p.MaxThreshold = 500
	}
	if p.Mode == Enhanced {
		p.FetchProfiles = true
	}
	if p.Workers < 1 {
		p.Workers = 1
	}
	return p
}

// CoreUser is one member of the core set C: a self-declared current student
// whose friend list is stranger-visible.
type CoreUser struct {
	ID       osn.PublicID
	GradYear int
	// Cohort is GradYear-CurrentYear in [0,3] (0 = senior class).
	Cohort int
	// FromSeeds is true for §4.1 cores, false for §4.3 promotions.
	FromSeeds bool
	// Friends is the fetched friend list.
	Friends []osn.FriendRef
}

// Candidate is one member of the candidate set K with its reverse-lookup
// state.
type Candidate struct {
	ID   osn.PublicID
	Name string
	// Hits[i] is |G_i(u)|: how many cohort-i core users list u as a friend.
	Hits [4]int
	// Score is x(u) = max_i |G_i(u)|/|C_i| over non-empty cohorts.
	Score float64
	// PredGradYear is the classified graduation year (argmax cohort).
	PredGradYear int
	// Profile is the downloaded public profile, nil outside the top
	// window.
	Profile *osn.PublicProfile
	// Filtered marks candidates eliminated by a §4.4 rule; FilterReason
	// names the rule.
	Filtered     bool
	FilterReason string
}

// Inferred is one member of the attack's output set H with its inferred
// attributes — the seed of the dossier §6 extends.
type Inferred struct {
	ID       osn.PublicID
	Name     string
	GradYear int
	// FromCore is true if the user self-declared attendance (C′ or the
	// extended core) rather than being inferred by ranking.
	FromCore bool
	Score    float64
}

// Result is the outcome of one profiling run.
type Result struct {
	Params Params
	School osn.SchoolRef

	// Seeds is S: the deduped union of all search results.
	Seeds []osn.SearchResult
	// CorePrime maps every self-declared current student (C′ plus §4.3
	// promotions) to the grad year shown on their profile.
	CorePrime map[osn.PublicID]int
	// corePrimeNames keeps their display names for Select output.
	corePrimeNames map[osn.PublicID]string
	// SeedCoreSize is |C| after step 2 (seed-derived cores with friend
	// lists); ExtendedCoreSize counts all self-declared current students
	// found by the run (the paper's "extended core users").
	SeedCoreSize     int
	ExtendedCoreSize int
	// CohortSizes[i] is |C_i| used in the final scoring pass.
	CohortSizes [4]int
	// Ranked is the candidate set K, scored and sorted descending.
	Ranked []Candidate
	// Effort is the request tally for this run.
	Effort crawler.Effort
	// Retries counts extra attempts the session spent riding out transient
	// failures, and Failures the requests that failed for good, both by
	// category.
	Retries  crawler.Effort
	Failures crawler.Effort
	// FailedFetches counts the per-item failures absorbed under
	// Params.FailureBudget.
	FailedFetches int
}

// CandidateCount is |K|.
func (r *Result) CandidateCount() int { return len(r.Ranked) }

// Select materializes H = T ∪ C′ for a threshold t: the top-t unfiltered
// (if filtering) candidates plus every self-declared current student. The
// result is independent of crawling state as long as t ≤ MaxThreshold. A
// negative t selects no candidates, as t = 0 does.
func (r *Result) Select(t int, filtering bool) []Inferred {
	t = max(t, 0)
	out := make([]Inferred, 0, len(r.CorePrime)+min(t, len(r.Ranked)))
	for id, gy := range r.CorePrime {
		out = append(out, Inferred{
			ID: id, Name: r.corePrimeNames[id], GradYear: gy, FromCore: true,
		})
	}
	// Deterministic order for the core block (map iteration is random).
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	taken := 0
	for i := range r.Ranked {
		if taken == t {
			break
		}
		c := &r.Ranked[i]
		if filtering && c.Filtered {
			continue
		}
		out = append(out, Inferred{
			ID: c.ID, Name: c.Name, GradYear: c.PredGradYear, Score: c.Score,
		})
		taken++
	}
	return out
}

// IndicatesCurrentStudent reports whether a public profile self-declares
// current attendance at the target school: it names the school with a
// graduation year in the current four-year window.
func IndicatesCurrentStudent(pp *osn.PublicProfile, school string, currentYear int) bool {
	return pp.HighSchool == school &&
		pp.GradYear >= currentYear && pp.GradYear <= currentYear+3
}

// filterReason applies the §4.4 elimination rules to a downloaded profile
// and returns the violated rule's name, or "".
func filterReason(pp *osn.PublicProfile, school osn.SchoolRef, currentYear int) string {
	if pp.GradSchool {
		return "graduate school"
	}
	if pp.HighSchool != "" && pp.HighSchool != school.Name {
		return "different high school"
	}
	if pp.HighSchool == school.Name && (pp.GradYear < currentYear || pp.GradYear > currentYear+3) {
		return "grad year out of range"
	}
	if pp.CurrentCity != "" && pp.CurrentCity != school.City {
		return "different current city"
	}
	return ""
}

// classify computes the ranking score under rule and the predicted cohort
// from reverse-lookup hits and cohort sizes. Year classification always
// uses the normalized argmax (the paper's rule) regardless of the ranking
// statistic. Cohorts with no core users are skipped; if every cohort is
// empty the score is 0 and the predicted year is currentYear.
func classify(hits [4]int, cohortSizes [4]int, currentYear int, rule ScoreRule) (score float64, predYear int) {
	best := -1.0
	bestCohort := 0
	sumFrac := 0.0
	totalHits := 0
	totalCores := 0
	for i := 0; i < 4; i++ {
		totalHits += hits[i]
		totalCores += cohortSizes[i]
		if cohortSizes[i] == 0 {
			continue
		}
		f := float64(hits[i]) / float64(cohortSizes[i])
		sumFrac += f
		if f > best {
			best = f
			bestCohort = i
		}
	}
	if best < 0 {
		return 0, currentYear
	}
	predYear = currentYear + bestCohort
	switch rule {
	case RuleTotalHits:
		return float64(totalHits), predYear
	case RuleWeighted:
		// Dominant-cohort fraction plus a quarter-weight share of the
		// remaining cohorts' support.
		return best + 0.25*(sumFrac-best), predYear
	default:
		return best, predYear
	}
}

// validateParams rejects obviously broken inputs early.
func validateParams(p Params) error {
	if p.SchoolName == "" {
		return fmt.Errorf("core: empty school name")
	}
	if p.CurrentYear < 1900 || p.CurrentYear > 3000 {
		return fmt.Errorf("core: implausible current year %d", p.CurrentYear)
	}
	// NaN passes a < 0 test, and a NaN or infinite window converts to a
	// garbage int.
	if !(p.Epsilon >= 0) || math.IsInf(p.Epsilon, 1) {
		return fmt.Errorf("core: epsilon must be a finite number ≥ 0, got %v", p.Epsilon)
	}
	return nil
}
