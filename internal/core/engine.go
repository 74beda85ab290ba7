package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
)

// engine drives the crawl stages of one run over the session's worker
// pool, Params.Workers wide; one worker is the sequential crawl. Results
// are bit-identical at any width — per-item state is index-aligned or kept
// in per-worker shards whose merge is order-independent, and the final
// ranking uses one canonical sort — so the worker count is purely a
// throughput knob.
//
// The failure budget is shared across stages and workers and accounted
// atomically: with the deterministic fault injector, the set of requests
// that fail for good is schedule-independent, so the absorbed-failure
// count does not depend on the width either.
type engine struct {
	sess    *crawler.Session
	workers int
	r       *Result

	budget   atomic.Int64
	absorbed atomic.Int64
}

func newEngine(sess *crawler.Session, r *Result) *engine {
	e := &engine{sess: sess, workers: r.Params.Workers, r: r}
	e.budget.Store(int64(r.Params.FailureBudget))
	return e
}

// absorb reports whether a per-item fetch failure can be absorbed under the
// failure budget, consuming one unit when so. Context cancellation is never
// absorbed: a cancelled crawl must stop, not limp on.
func (e *engine) absorb(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for {
		b := e.budget.Load()
		if b <= 0 {
			return false
		}
		if e.budget.CompareAndSwap(b, b-1) {
			e.absorbed.Add(1)
			return true
		}
	}
}

// finish copies the engine's accounting into the result: the absorbed-
// failure count and the session's request tallies.
func (e *engine) finish() {
	e.r.FailedFetches = int(e.absorbed.Load())
	e.r.Effort = e.sess.Effort()
	e.r.Retries = e.sess.Retries()
	e.r.Failures = e.sess.Failures()
}

// seedProfiles fetches every seed's public profile, index-aligned with
// seeds. A nil slot is a fetch failure absorbed under the budget.
func (e *engine) seedProfiles(ctx context.Context, seeds []osn.SearchResult) ([]*osn.PublicProfile, error) {
	out := make([]*osn.PublicProfile, len(seeds))
	err := e.sess.ForEach(ctx, e.workers, len(seeds), func(ctx context.Context, i int) error {
		pp, err := e.sess.FetchProfile(ctx, seeds[i].ID)
		if err != nil {
			if e.absorb(err) {
				return nil // skip this seed
			}
			return fmt.Errorf("core: seed profile %s: %w", seeds[i].ID, err)
		}
		out[i] = pp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// agg is one candidate's reverse-lookup accumulator. nameIdx is the
// smallest core index that contributed the name: taking the minimum at
// merge time reproduces the sequential first-seen-in-core-order name pick
// independent of worker scheduling.
type agg struct {
	name    string
	nameIdx int
	hits    [4]int
}

// harvestShard is one worker's local accumulator: cohort sizes and
// candidate hits for the core users that worker processed. Shards merge by
// summation, which is order-independent.
type harvestShard struct {
	cohortSizes [4]int
	cands       map[osn.PublicID]*agg
}

// aggregate folds one harvested core user into the shard.
func (s *harvestShard) aggregate(idx int, cu *CoreUser, corePrime map[osn.PublicID]int) {
	s.cohortSizes[cu.Cohort]++
	for _, fr := range cu.Friends {
		if _, isCore := corePrime[fr.ID]; isCore {
			continue // already known students, not candidates
		}
		a := s.cands[fr.ID]
		if a == nil {
			a = &agg{name: fr.Name, nameIdx: idx}
			s.cands[fr.ID] = a
		} else if idx < a.nameIdx {
			a.name, a.nameIdx = fr.Name, idx
		}
		a.hits[cu.Cohort]++
	}
}

// merge folds another shard into this one. Hit counts and cohort sizes sum
// (commutative), names resolve to the smallest contributing core index.
func (s *harvestShard) merge(o *harvestShard) {
	for i, n := range o.cohortSizes {
		s.cohortSizes[i] += n
	}
	for id, oa := range o.cands {
		a := s.cands[id]
		if a == nil {
			s.cands[id] = oa
			continue
		}
		if oa.nameIdx < a.nameIdx {
			a.name, a.nameIdx = oa.name, oa.nameIdx
		}
		for i, h := range oa.hits {
			a.hits[i] += h
		}
	}
}

// harvestAndScore runs steps 3-6 for the given core set: fetches any
// missing friend lists, builds the candidate set, reverse-looks-up cohort
// hits, scores and ranks. It overwrites r.CohortSizes and r.Ranked but
// preserves downloaded profiles from a previous pass.
func (e *engine) harvestAndScore(ctx context.Context, core []CoreUser) error {
	r := e.r
	for i := range core {
		if c := core[i].Cohort; c < 0 || c > 3 {
			return fmt.Errorf("core: core user %s has cohort %d", core[i].ID, c)
		}
	}

	// Per-worker shard pool: each item grabs a free shard, folds its core
	// user in locally, and returns it — no shared accumulator contention
	// while the fetches overlap. r.CorePrime is read-only during the harvest
	// (promotions happen between passes).
	shards := make(chan *harvestShard, e.workers)
	for i := 0; i < e.workers; i++ {
		shards <- &harvestShard{cands: make(map[osn.PublicID]*agg)}
	}
	err := e.sess.ForEach(ctx, e.workers, len(core), func(ctx context.Context, i int) error {
		cu := &core[i]
		if cu.Friends == nil {
			friends, err := e.sess.FetchFriends(ctx, cu.ID)
			if errors.Is(err, osn.ErrHidden) {
				// Race between profile flag and list visibility cannot
				// happen on the simulator, but a live platform could flip
				// settings mid-crawl; drop the core user.
				return nil
			}
			if err != nil {
				if e.absorb(err) {
					return nil // exclude this core user from scoring
				}
				return fmt.Errorf("core: friend list of %s: %w", cu.ID, err)
			}
			cu.Friends = friends
		}
		s := <-shards
		s.aggregate(i, cu, r.CorePrime)
		shards <- s
		return nil
	})
	if err != nil {
		return err
	}
	total := <-shards
	for i := 1; i < e.workers; i++ {
		total.merge(<-shards)
	}

	prevProfiles := make(map[osn.PublicID]*osn.PublicProfile)
	prevFilter := make(map[osn.PublicID]string)
	for i := range r.Ranked {
		c := &r.Ranked[i]
		if c.Profile != nil {
			prevProfiles[c.ID] = c.Profile
			prevFilter[c.ID] = c.FilterReason
		}
	}
	r.CohortSizes = total.cohortSizes
	ranked := make([]Candidate, 0, len(total.cands))
	for id, a := range total.cands {
		score, pred := classify(a.hits, total.cohortSizes, r.Params.CurrentYear, r.Params.Rule)
		c := Candidate{
			ID: id, Name: a.name, Hits: a.hits, Score: score, PredGradYear: pred,
		}
		if pp, ok := prevProfiles[id]; ok {
			c.Profile = pp
			c.FilterReason = prevFilter[id]
			c.Filtered = c.FilterReason != ""
		}
		ranked = append(ranked, c)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		return ranked[i].ID < ranked[j].ID
	})
	r.Ranked = ranked
	return nil
}

// fetchWindowProfiles downloads profiles for the top `window` ranked
// candidates that lack one, recording filter verdicts. When promote is
// true, self-declared current students are removed from the ranking,
// recorded in CorePrime, and returned as new core users (with friend lists
// left for harvestAndScore to fetch).
//
// The missing in-window profiles are fetched over the pool first; the
// window walk itself — promotion, filtering, ranking surgery — is
// sequential in rank order, so its outcome does not depend on the width.
func (e *engine) fetchWindowProfiles(ctx context.Context, window int, promote bool) ([]CoreUser, error) {
	r := e.r
	inWindow := min(window, len(r.Ranked))
	var missing []int
	for i := 0; i < inWindow; i++ {
		if r.Ranked[i].Profile == nil {
			missing = append(missing, i)
		}
	}
	fetched := make([]*osn.PublicProfile, inWindow)
	err := e.sess.ForEach(ctx, e.workers, len(missing), func(ctx context.Context, k int) error {
		id := r.Ranked[missing[k]].ID
		pp, err := e.sess.FetchProfile(ctx, id)
		if err != nil {
			if e.absorb(err) {
				return nil // entry stays missing: kept ranked, unprofiled
			}
			return fmt.Errorf("core: candidate profile %s: %w", id, err)
		}
		fetched[missing[k]] = pp
		return nil
	})
	if err != nil {
		return nil, err
	}

	var promotedUsers []CoreUser
	kept := r.Ranked[:0]
	for i := range r.Ranked {
		c := r.Ranked[i]
		if i < inWindow {
			if c.Profile == nil {
				if fetched[i] == nil {
					// Keep the candidate ranked but unprofiled: it can
					// still be selected, just never filtered or promoted.
					kept = append(kept, c)
					continue
				}
				c.Profile = fetched[i]
				c.FilterReason = filterReason(c.Profile, r.School, r.Params.CurrentYear)
				c.Filtered = c.FilterReason != ""
			}
			if promote && IndicatesCurrentStudent(c.Profile, r.School.Name, r.Params.CurrentYear) {
				r.CorePrime[c.ID] = c.Profile.GradYear
				r.corePrimeNames[c.ID] = c.Profile.Name
				if c.Profile.FriendListVisible {
					promotedUsers = append(promotedUsers, CoreUser{
						ID:       c.ID,
						GradYear: c.Profile.GradYear,
						Cohort:   c.Profile.GradYear - r.Params.CurrentYear,
					})
				}
				continue // leaves the candidate ranking for the core
			}
		}
		kept = append(kept, c)
	}
	r.Ranked = kept
	return promotedUsers, nil
}
