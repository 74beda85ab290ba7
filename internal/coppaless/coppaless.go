// Package coppaless implements Section 7 of the paper: the counterfactual
// world without COPPA's age gate, where nobody needs to lie about their
// age, and the "natural approach" a third party would fall back to there.
//
// The comparison is the paper's central policy finding: with COPPA (and the
// lying it induces), the attack finds more minors with far fewer false
// positives than any strategy available in the truthful world — so this
// component of the law increases third-party exposure for minors.
package coppaless

import (
	"context"
	"errors"
	"fmt"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// WithoutCOPPA returns a copy of the world in which every account is
// registered with its true birth date: the §7 assumption that, absent an
// age gate, (almost) nobody lies. The friendship graph and privacy settings
// are unchanged; only registered ages move.
func WithoutCOPPA(w *worldgen.World) *worldgen.World {
	c := w.Clone()
	for _, p := range c.People {
		if p.HasAccount {
			p.RegisteredBirth = p.TrueBirth
			p.LiedAtSignup = false
		}
	}
	return c
}

// Params configures the §7.1 natural approach.
type Params struct {
	SchoolName string
	// CurrentYear is the senior class's graduation year.
	CurrentYear int
	// GradYearsBack is how many recent alumni classes to use as cores (the
	// paper uses the 2010 and 2011 classes for a 2012 collection: 2 back).
	GradYearsBack int
	// MinCoreFriends is the §7.1 step-4 parameter n: candidates must have
	// at least n core friends. Results for n = 1..3 make Figure 3.
	MinCoreFriends int
	// SeedAccounts picks the fake accounts used for the search (nil = all).
	SeedAccounts []int
}

// Result is the natural approach's output.
type Result struct {
	School osn.SchoolRef
	// CoreSize is the number of recent-graduate cores with public lists.
	CoreSize int
	// Candidates is the size of the friend union before filtering.
	Candidates int
	// MinimalCandidates is the size after the minimal-profile filter.
	MinimalCandidates int
	// H maps each final guess (≥ n core friends, minimal profile) to its
	// core-friend count.
	H map[osn.PublicID]int
	// Effort is the session's request tally for this run.
	Effort crawler.Effort
}

// Guesses returns the members of H with at least n core friends — so one
// crawl serves every n in Figure 3.
func (r *Result) Guesses(n int) []osn.PublicID {
	var out []osn.PublicID
	for id, k := range r.H {
		if k >= n {
			out = append(out, id)
		}
	}
	return out
}

// NaturalApproach runs the §7.1 heuristic: find recent graduates (young
// adults) of the target school, harvest their friends, keep the ones who
// look like minors (minimal public profiles), and require n core friends.
func NaturalApproach(sess *crawler.Session, p Params) (*Result, error) {
	if p.GradYearsBack <= 0 {
		p.GradYearsBack = 2
	}
	if p.MinCoreFriends <= 0 {
		p.MinCoreFriends = 1
	}
	ctx := context.TODO()
	school, err := sess.LookupSchool(ctx, p.SchoolName)
	if err != nil {
		return nil, err
	}
	accounts := p.SeedAccounts
	if accounts == nil {
		accounts = sess.AllAccounts()
	}
	seeds, err := sess.CollectSeeds(ctx, 1, school.ID, accounts)
	if err != nil {
		return nil, err
	}

	// Step 1: recent-graduate cores with public friend lists.
	var cores []osn.PublicID
	for _, s := range seeds {
		pp, err := sess.FetchProfile(ctx, s.ID)
		if err != nil {
			return nil, err
		}
		if pp.HighSchool != school.Name || !pp.FriendListVisible {
			continue
		}
		if pp.GradYear < p.CurrentYear-p.GradYearsBack || pp.GradYear > p.CurrentYear {
			continue
		}
		cores = append(cores, s.ID)
	}
	r := &Result{School: school, CoreSize: len(cores), H: make(map[osn.PublicID]int)}
	if len(cores) == 0 {
		return nil, fmt.Errorf("coppaless: no recent-graduate cores for %q", p.SchoolName)
	}

	// Step 2: candidate set = union of core friends, with core-friend
	// counts for step 4.
	counts := make(map[osn.PublicID]int)
	coreSet := make(map[osn.PublicID]bool, len(cores))
	for _, id := range cores {
		coreSet[id] = true
	}
	for _, id := range cores {
		friends, err := sess.FetchFriends(ctx, id)
		if errors.Is(err, osn.ErrHidden) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, f := range friends {
			if !coreSet[f.ID] {
				counts[f.ID]++
			}
		}
	}
	r.Candidates = len(counts)

	// Step 3: keep only minimal public profiles (the registered-minor
	// signature in the truthful world).
	for id, k := range counts {
		pp, err := sess.FetchProfile(ctx, id)
		if err != nil {
			return nil, err
		}
		if !pp.Minimal() {
			continue
		}
		r.MinimalCandidates++
		// Step 4 threshold is applied by Guesses(n); store the count.
		r.H[id] = k
	}
	r.Effort = sess.Effort()
	return r, nil
}

// MinimalTopT implements the §7.2 with-COPPA side of the apples-to-apples
// comparison: from a §5 run's ranking, the set M_t of top-t users whose
// profiles are minimal. Requires the run to have downloaded the top-window
// profiles (enhanced mode or FetchProfiles), and t within that window.
func MinimalTopT(res *core.Result, t int) ([]osn.PublicID, error) {
	var out []osn.PublicID
	for i, c := range res.Ranked {
		if i >= t {
			break
		}
		if c.Profile == nil {
			return nil, fmt.Errorf("coppaless: ranked[%d] has no profile; run with profile fetching and t ≤ MaxThreshold", i)
		}
		if c.Profile.Minimal() {
			out = append(out, c.ID)
		}
	}
	return out, nil
}
