// Package eval measures how well the attack did. It implements both of the
// paper's evaluation regimes: full ground truth (HS1, where the authors had
// the complete roster) and limited ground truth (HS2/HS3, where held-out
// seed accounts provide "test users" and §5.5's estimators extrapolate
// coverage and false positives).
//
// This is the only attack-adjacent package allowed to read the world behind
// the platform; internal/core never does.
package eval

import (
	"context"
	"fmt"

	"hsprofiler/internal/core"
	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
)

// GroundTruth is the oracle roster of one school: the paper's set M (the
// students with OSN accounts) keyed by public ID.
type GroundTruth struct {
	// students maps public ID to the true graduation year.
	students map[osn.PublicID]int
	// minimal marks the students whose public profiles are minimal
	// (registered minors) — the population §7.2 compares on.
	minimal map[osn.PublicID]bool
	m       int
}

// NewGroundTruth extracts the oracle for a school from the platform's
// underlying world.
func NewGroundTruth(p *osn.Platform, schoolID int) *GroundTruth {
	w := p.World()
	gt := &GroundTruth{
		students: make(map[osn.PublicID]int),
		minimal:  make(map[osn.PublicID]bool),
	}
	for _, person := range w.RosterOnOSN(schoolID) {
		id, ok := p.PublicIDOf(person.ID)
		if !ok {
			continue
		}
		gt.students[id] = person.GradYear
		if person.RegisteredMinorAt(w.Now) {
			gt.minimal[id] = true
		}
		gt.m++
	}
	return gt
}

// M is |M|: the number of students on the OSN.
func (gt *GroundTruth) M() int { return gt.m }

// MinimalCount is the number of students with minimal public profiles.
func (gt *GroundTruth) MinimalCount() int { return len(gt.minimal) }

// IsStudent reports whether the public ID belongs to a current student, and
// if so their true graduation year.
func (gt *GroundTruth) IsStudent(id osn.PublicID) (gradYear int, ok bool) {
	gy, ok := gt.students[id]
	return gy, ok
}

// IsMinimalStudent reports whether the ID is a student with a minimal
// public profile.
func (gt *GroundTruth) IsMinimalStudent(id osn.PublicID) bool {
	return gt.minimal[id]
}

// Outcome scores one inferred set H against full ground truth, in the
// paper's Table 4 terms.
type Outcome struct {
	// Total is |H|.
	Total int
	// Found is |H ∩ M|: true students discovered (Table 4's x).
	Found int
	// CorrectYear is how many of Found carry the right graduation year
	// (Table 4's y).
	CorrectYear int
	// FalsePositives is |H − M|.
	FalsePositives int
	// M is |M|.
	M int
}

// FoundFrac is the fraction of the student body discovered.
func (o Outcome) FoundFrac() float64 {
	if o.M == 0 {
		return 0
	}
	return float64(o.Found) / float64(o.M)
}

// FPRate is the fraction of H that is wrong — the paper's "% false
// positives" (e.g. 128/400 = 32%).
func (o Outcome) FPRate() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.FalsePositives) / float64(o.Total)
}

// CorrectYearFrac is, among discovered students, the fraction classified in
// the right graduation year.
func (o Outcome) CorrectYearFrac() float64 {
	if o.Found == 0 {
		return 0
	}
	return float64(o.CorrectYear) / float64(o.Found)
}

// String renders the outcome in the paper's x/y notation.
func (o Outcome) String() string {
	return fmt.Sprintf("%d/%d (FP %d, |H| %d, |M| %d)",
		o.Found, o.CorrectYear, o.FalsePositives, o.Total, o.M)
}

// Evaluate scores an inferred set against the roster.
func (gt *GroundTruth) Evaluate(sel []core.Inferred) Outcome {
	o := Outcome{M: gt.m, Total: len(sel)}
	for _, s := range sel {
		gy, ok := gt.students[s.ID]
		if !ok {
			o.FalsePositives++
			continue
		}
		o.Found++
		if s.GradYear == gy {
			o.CorrectYear++
		}
	}
	return o
}

// CollectTestUsers implements the §5.5 limited-ground-truth protocol: run
// the school search again with a second, disjoint set of accounts, download
// those profiles, and keep the self-declared current students that the
// first seed set missed. These become the held-out sample.
func CollectTestUsers(sess *crawler.Session, school osn.SchoolRef, currentYear int, firstSeeds []osn.SearchResult, accounts []int) ([]osn.PublicID, error) {
	inFirst := make(map[osn.PublicID]bool, len(firstSeeds))
	for _, s := range firstSeeds {
		inFirst[s.ID] = true
	}
	ctx := context.TODO()
	seeds, err := sess.CollectSeeds(ctx, 1, school.ID, accounts)
	if err != nil {
		return nil, err
	}
	var out []osn.PublicID
	for _, s := range seeds {
		if inFirst[s.ID] {
			continue
		}
		pp, err := sess.FetchProfile(ctx, s.ID)
		if err != nil {
			return nil, err
		}
		if core.IndicatesCurrentStudent(pp, school.Name, currentYear) {
			out = append(out, s.ID)
		}
	}
	return out, nil
}

// LimitedEstimate is the §5.5 extrapolation from test-user hits.
type LimitedEstimate struct {
	// TestUsers and TestHits are the sample size and how many of the
	// sample landed in H.
	TestUsers, TestHits int
	// EstFound is the estimated number of students discovered;
	// EstFalsePositives the estimated false positives in the top-t.
	EstFound, EstFalsePositives float64
	// PctFound and PctFalsePositives are the paper's Figure 2 series.
	PctFound, PctFalsePositives float64
}

// EstimateLimited applies the paper's two estimator formulas:
//
//	found(t) = cores + (z_t / #test) · (HS size − cores)
//	fp(t)    = t − (z_t / #test) · (HS size − cores)
//
// where cores is the (extended) core count, z_t the test users present in
// the top-t selection, and hsSize the school's enrollment (attacker-known,
// e.g. from Wikipedia). Percentages divide by hsSize and (cores + t)
// respectively.
func EstimateLimited(testUsers []osn.PublicID, sel []core.Inferred, hsSize, cores, t int) LimitedEstimate {
	// Membership is against the whole inferred set H. Under the enhanced
	// methodology a test user may have been promoted into the extended
	// core — the paper still counts them as discovered.
	inH := make(map[osn.PublicID]bool, len(sel))
	for _, s := range sel {
		inH[s.ID] = true
	}
	est := LimitedEstimate{TestUsers: len(testUsers)}
	for _, id := range testUsers {
		if inH[id] {
			est.TestHits++
		}
	}
	if est.TestUsers == 0 || hsSize <= cores {
		return est
	}
	frac := float64(est.TestHits) / float64(est.TestUsers)
	nonCore := float64(hsSize - cores)
	est.EstFound = float64(cores) + frac*nonCore
	est.EstFalsePositives = float64(t) - frac*nonCore
	if est.EstFalsePositives < 0 {
		est.EstFalsePositives = 0
	}
	est.PctFound = est.EstFound / float64(hsSize)
	if est.PctFound > 1 {
		est.PctFound = 1
	}
	est.PctFalsePositives = est.EstFalsePositives / float64(cores+t)
	return est
}
