package worldgen

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// EvolveConfig tunes one simulated year of world evolution. Rates are
// annual. The defaults are calibrated against the paper's observations:
// HS1's 10-20% student body churn across four years (§5.1), friendship
// accretion dominated by in-cohort ties, and privacy settings that drift
// slowly compared to the population dynamics.
type EvolveConfig struct {
	// Churn is the probability a student transfers out during the year
	// (becoming RoleFormer — the false-positive population §5.1 names).
	Churn float64
	// FormerRetainFrac is the fraction of in-school friendships a
	// transferred-out student keeps.
	FormerRetainFrac float64
	// Intake is the incoming-transfer target per school, as a fraction of
	// current enrollment. Recruits are outside-pool teens whose age fits a
	// current class; the world's population is fixed, people change roles.
	Intake float64
	// IntakeListsSchool is the probability an incoming transfer's profile
	// names the new school.
	IntakeListsSchool float64
	// FormInCohort / FormCrossCohort / FormOutside are the mean numbers of
	// new friendships a student initiates per year, scaled by Sociality,
	// toward classmates, other cohorts, and the outside pool.
	FormInCohort    float64
	FormCrossCohort float64
	FormOutside     float64
	// Dissolve is the probability an existing friendship dissolves during
	// the year.
	Dissolve float64
	// PrivacyDrift is the probability an account toggles one privacy
	// switch during the year (including ListsSchool — drifting in or out
	// of the attack's seed set).
	PrivacyDrift float64
	// GradMoveAway is the probability a graduating senior's current city
	// changes (alumni scatter is what decays city-scoped searches).
	GradMoveAway float64
}

// DefaultEvolveConfig returns the calibrated annual rates.
func DefaultEvolveConfig() EvolveConfig {
	return EvolveConfig{
		Churn:             0.04,
		FormerRetainFrac:  0.30,
		Intake:            0.04,
		IntakeListsSchool: 0.55,
		FormInCohort:      2.5,
		FormCrossCohort:   0.8,
		FormOutside:       1.0,
		Dissolve:          0.04,
		PrivacyDrift:      0.08,
		GradMoveAway:      0.35,
	}
}

// Delta records what one evolution step changed: the edge delta feeds the
// incremental CSR patch (socialgraph.ApplyDelta) and the epoch-advance
// event log; the dirty sets feed the incremental epoch build in osn, which
// rebuilds views only for what the step touched; the counters feed metrics
// and reports.
//
// A Delta returned by an Evolver references the Evolver's reusable scratch
// and is valid only until the next Step call.
type Delta struct {
	Epoch int
	Now   sim.Date
	// Added and Removed are the normalized edge delta against the
	// snapshot the step started from.
	Added, Removed []socialgraph.Edge
	// DirtyUsers lists, sorted ascending, every person whose person record
	// changed this step (role, school, grad year, city, privacy) or whose
	// registered age class crossed the 18-year boundary as the clock
	// ticked. Users whose friend rows changed are NOT repeated here — they
	// are derivable from Added/Removed endpoints.
	DirtyUsers []socialgraph.UserID
	// DirtySchools lists, sorted ascending, school IDs whose search-index
	// membership may have changed (a member's PublicSearch or ListsSchool
	// flipped, or an intake joined).
	DirtySchools []int
	// DirtyCities lists, sorted, city names (as stored on person records)
	// whose city-index membership may have changed.
	DirtyCities []string
	// Patch is the CSR patch phase breakdown from ApplyDelta.
	Patch socialgraph.PatchStats
	// Role and profile transitions.
	Graduated      int
	TransferredOut int
	TransferredIn  int
	PrivacyChanged int
	MovedAway      int
}

// Evolver advances a world year by year, reusing its edge buffers, dirty
// bitsets and formation-pool scratch across steps so long temporal runs
// (longitudinal panels, rotation benchmarks, osnd -evolve) do not pay a
// fresh allocation storm per epoch. Its CSR patch scratch also keeps the
// snapshots earlier steps started from: once nothing holds one any more
// (the world released it when the step replaced it, and a serving epoch
// releases it when it drains), a later step writes its snapshot into that
// one's arrays instead of allocating a new adjacency. It also carries each
// row's split — the count of friends below the row's own ID — for the
// snapshot its last step produced, so the next step finds the edges each
// person owns without searching their row. A fresh Evolver and a reused
// one produce bit-identical worlds — all randomness is identity-keyed,
// none of the scratch leaks into decisions.
//
// Not safe for concurrent use; the Delta returned by Step aliases the
// scratch and is valid until the next Step.
type Evolver struct {
	Cfg     EvolveConfig
	Workers int

	delta     Delta
	churned   []socialgraph.Edge
	dissolved []socialgraph.Edge
	removed   []socialgraph.Edge
	added     []socialgraph.Edge
	dirtyBit  []bool
	dirty     []socialgraph.UserID
	schoolBit []bool
	schools   []int
	citySet   map[string]bool
	cities    []string
	homeSet   map[string]bool
	homes     []string
	targets   []int
	outs      []shardOut
	pools     formationPools
	patch     socialgraph.PatchScratch
	// split[u] counts u's friends below u in splitOf, the snapshot the
	// last Step produced and installed; nil until a step succeeds. Holding
	// the pointer keeps its identity unique.
	split   []int32
	splitOf *socialgraph.Frozen
}

// NewEvolver returns an Evolver with the given per-year config. workers
// shards dissolution and formation and the CSR patch.
func NewEvolver(cfg EvolveConfig, workers int) *Evolver {
	if workers < 1 {
		workers = 1
	}
	return &Evolver{Cfg: cfg, Workers: workers, citySet: make(map[string]bool), homeSet: make(map[string]bool)}
}

// Evolve advances the world by one simulated year with a throwaway Evolver:
// the clock ticks, cohorts shift (seniors graduate to alumni, a new class
// year opens), students transfer out and in, privacy settings drift, and
// friendships form and dissolve. Prefer an Evolver for multi-year runs.
func Evolve(w *World, cfg EvolveConfig, epoch, workers int) (*Delta, error) {
	return NewEvolver(cfg, workers).Step(w, epoch)
}

// Step advances the world by one simulated year. The next CSR snapshot is
// built incrementally with socialgraph.ApplyDelta — cost proportional to
// the edge delta, not the world — so after Step returns, w.Frozen() is the
// new epoch's snapshot without a full rebuild, and the world no longer
// holds the snapshot the step started from.
//
// A year is three sweeps over the people and one over the user IDs. The
// phases — clock, graduation, churn out, intake, privacy drift,
// dissolution, formation — each read and write only the person at hand
// (intake also its targets, churn its friends' schools, which only intake
// changes), so running them person by person within a sweep, in the order
// the phases are listed, gives what running each over everyone in turn
// would.
//
// Determinism: every decision draws from a stream keyed by
// (seed, "evolve/<epoch>/<phase>", personID), never from a shared
// sequential stream, so the result is a pure function of
// (world, config, epoch) — bit-identical at any worker count, fresh
// Evolver or reused. Each phase's label is hashed once per step into a
// sim.Streams family, and a person's stream is a stack value derived from
// it. Dissolution makes each person's Bernoulli draws in one sim.Rand.Hits
// run.
func (ev *Evolver) Step(w *World, epoch int) (*Delta, error) {
	cfg := ev.Cfg
	if epoch < 1 {
		return nil, fmt.Errorf("worldgen: evolve epoch must be >= 1, got %d", epoch)
	}
	ev.reset(w)
	prev := w.Frozen()
	root := sim.New(w.Seed)
	streams := func(phase string) sim.Streams {
		return root.Streams("evolve/" + strconv.Itoa(epoch) + "/" + phase)
	}
	ev.delta = Delta{Epoch: epoch}
	d := &ev.delta

	// The clock: one simulated year. Cohorts shift with it — last year's
	// seniors are no longer a current class, a new class year opens at the
	// bottom.
	before := w.Now
	w.Now = w.Now.AddYears(1)
	d.Now = w.Now
	for _, s := range w.Schools {
		for i := range s.GradYears {
			s.GradYears[i]++
		}
	}
	homes := ev.sweepClock(w, before)
	ev.sweepRoles(w, prev, homes, streams("grad"), streams("churn"))
	ev.sweepIntake(w, streams("intake"), streams("privacy"))

	// Dissolution and formation, in one sweep over the user IDs (sharded).
	// Dissolution: each person decides the fate of the edges they own
	// (u < v) in the pre-step snapshot, from their own stream. Rows are
	// sorted, so the owned edges are the suffix from the row's split, and
	// the output comes out normalized: ascending u across shards,
	// ascending v within a row. Formation: students initiate new ties into
	// their cohort, the rest of the school, and the outside pool. Partners
	// come from the pools sweepIntake built in ID order; picks that
	// duplicate an existing pre-step edge are skipped, so adds never
	// collide with kept edges.
	split, known := ev.splitFor(w, prev)
	dissolve, form := streams("dissolve"), streams("form")
	pools := &ev.pools
	ev.sweepEdges(len(w.People), func(u socialgraph.UserID, out *shardOut) {
		row := prev.Friends(u)
		if !known {
			i, _ := slices.BinarySearch(row, u+1)
			split[u] = int32(i)
		}
		if owned := row[split[u]:]; len(owned) > 0 {
			rng := dissolve.N(int(u))
			rng.Hits(cfg.Dissolve, len(owned), func(j int) {
				out.dissolved = append(out.dissolved, socialgraph.Edge{A: u, B: owned[j]})
			})
		}
		p := w.People[u]
		if p.Role != RoleStudent || !p.HasAccount || p.SchoolID < 0 {
			return
		}
		rng := form.N(int(u))
		ci := w.Schools[p.SchoolID].CohortIndex(p.GradYear)
		formTies(&rng, prev, u, pools.cohort[p.SchoolID][ci], rng.Poisson(cfg.FormInCohort*p.Sociality), &out.added)
		formTies(&rng, prev, u, pools.school[p.SchoolID], rng.Poisson(cfg.FormCrossCohort*p.Sociality), &out.added)
		formTies(&rng, prev, u, pools.outside, rng.Poisson(cfg.FormOutside*p.Sociality), &out.added)
	})

	// Churn and dissolution can remove the same edge; the merge keeps one.
	ev.removed = socialgraph.MergeEdges(ev.removed[:0], socialgraph.NormalizeEdges(ev.churned), ev.dissolved)
	d.Removed = ev.removed
	d.Added = socialgraph.NormalizeEdges(ev.added)
	slices.Sort(ev.dirty)
	slices.Sort(ev.schools)
	slices.Sort(ev.cities)
	d.DirtyUsers = ev.dirty
	d.DirtySchools = ev.schools
	d.DirtyCities = ev.cities

	// Patch the pre-step CSR into the next snapshot — unchanged runs of
	// rows copied wholesale, changed rows merged, nothing re-sorted, and
	// the patch's working memory, and a released earlier snapshot's
	// arrays, reused.
	next, st, err := socialgraph.ApplyDelta(prev, d.Added, d.Removed, ev.Workers, &ev.patch)
	if err != nil {
		return nil, fmt.Errorf("worldgen: evolve epoch %d: %w", epoch, err)
	}
	d.Patch = st
	w.SetFrozen(next)
	// Carry the split to the new snapshot: an edge (a, b), a < b, sits
	// below b in b's row and above a in a's.
	for _, e := range d.Removed {
		split[e.B]--
	}
	for _, e := range d.Added {
		split[e.B]++
	}
	ev.splitOf = next
	return d, nil
}

// splitFor returns the split array for snapshot f of world w, and whether
// it already holds f's splits: it does when f is the snapshot the last
// Step produced. Otherwise the caller fills it as it visits the rows.
func (ev *Evolver) splitFor(w *World, f *socialgraph.Frozen) ([]int32, bool) {
	if f == ev.splitOf && len(ev.split) == len(w.People) {
		return ev.split, true
	}
	ev.splitOf = nil
	if cap(ev.split) < len(w.People) {
		ev.split = make([]int32, len(w.People))
	}
	ev.split = ev.split[:len(w.People)]
	return ev.split, false
}

// reset re-arms the scratch for a new step, keeping backing arrays.
func (ev *Evolver) reset(w *World) {
	ev.churned = ev.churned[:0]
	ev.dissolved = ev.dissolved[:0]
	ev.added = ev.added[:0]
	if len(ev.dirtyBit) != len(w.People) {
		ev.dirtyBit = make([]bool, len(w.People))
	} else {
		for _, u := range ev.dirty {
			ev.dirtyBit[u] = false
		}
	}
	ev.dirty = ev.dirty[:0]
	if len(ev.schoolBit) != len(w.Schools) {
		ev.schoolBit = make([]bool, len(w.Schools))
	} else {
		for _, s := range ev.schools {
			ev.schoolBit[s] = false
		}
	}
	ev.schools = ev.schools[:0]
	clear(ev.citySet)
	ev.cities = ev.cities[:0]
	if cap(ev.targets) < len(w.Schools) {
		ev.targets = make([]int, len(w.Schools))
	}
	ev.targets = ev.targets[:len(w.Schools)]
	clear(ev.targets)
}

func (ev *Evolver) markUser(u socialgraph.UserID) {
	if !ev.dirtyBit[u] {
		ev.dirtyBit[u] = true
		ev.dirty = append(ev.dirty, u)
	}
}

func (ev *Evolver) markSchool(s int) {
	if s >= 0 && s < len(ev.schoolBit) && !ev.schoolBit[s] {
		ev.schoolBit[s] = true
		ev.schools = append(ev.schools, s)
	}
}

func (ev *Evolver) markCity(c string) {
	if c != "" && !ev.citySet[c] {
		ev.citySet[c] = true
		ev.cities = append(ev.cities, c)
	}
}

func normEdge(a, b socialgraph.UserID) socialgraph.Edge {
	if a > b {
		a, b = b, a
	}
	return socialgraph.Edge{A: a, B: b}
}

// sweepClock is the step's first people sweep; it reads the people as the
// step found them. Accounts whose registered age crosses the 18-year
// boundary between before and w.Now change policy class without any
// record mutation, so they go into the dirty set here. It returns the
// cities people live in, in first-seen (ID) order — a deterministic
// move-away destination pool.
func (ev *Evolver) sweepClock(w *World, before sim.Date) []string {
	clear(ev.homeSet)
	homes := ev.homes[:0]
	for _, p := range w.People {
		if p.HasAccount && p.RegisteredMinorAt(before) != p.RegisteredMinorAt(w.Now) {
			ev.markUser(p.ID)
		}
		if c := p.CurrentCity; c != "" && !ev.homeSet[c] {
			ev.homeSet[c] = true
			homes = append(homes, c)
		}
	}
	ev.homes = homes
	return homes
}

// sweepRoles is the step's second people sweep. Students whose class is
// no longer current graduate to alumni; some move away to one of homes —
// the city scatter that ages city-scoped searches. A student who stays
// may transfer out, keeping only a fraction of their in-school ties; these
// removals go in their own list, normalized alone and merged with
// dissolution's. Whoever is still a student counts toward their school's
// intake target, a fraction of its current enrollment.
func (ev *Evolver) sweepRoles(w *World, prev *socialgraph.Frozen, homes []string, grad, churn sim.Streams) {
	cfg := ev.Cfg
	d := &ev.delta
	for _, p := range w.People {
		if p.Role != RoleStudent {
			continue
		}
		if w.Schools[p.SchoolID].CohortIndex(p.GradYear) < 0 {
			rng := grad.N(int(p.ID))
			p.Role = RoleAlumnus
			ev.markUser(p.ID)
			d.Graduated++
			if rng.Bool(cfg.GradMoveAway) && len(homes) > 1 {
				if c := homes[rng.Intn(len(homes))]; c != p.CurrentCity {
					ev.markCity(p.CurrentCity)
					ev.markCity(c)
					p.CurrentCity = c
					d.MovedAway++
				}
			}
			continue
		}
		rng := churn.N(int(p.ID))
		if !rng.Bool(cfg.Churn) {
			ev.targets[p.SchoolID]++
			continue
		}
		p.Role = RoleFormer
		ev.markUser(p.ID)
		d.TransferredOut++
		if !p.HasAccount {
			continue
		}
		for _, q := range prev.Friends(p.ID) {
			if w.People[q].SchoolID == p.SchoolID && !rng.Bool(cfg.FormerRetainFrac) {
				ev.churned = append(ev.churned, normEdge(p.ID, q))
			}
		}
	}
	for i, n := range ev.targets {
		ev.targets[i] = int(float64(n) * cfg.Intake)
	}
}

// sweepIntake is the step's third people sweep, in ID order over the
// account holders. Each first goes through intake: an outside-pool teen
// young enough for a current class transfers in, to the lowest school
// whose target is not full — the population is fixed; the pool shrinks
// as schools refill. Then privacy drift: the account toggles one switch
// with small probability; PublicSearch and ListsSchool flips move people
// in and out of the search indexes, so their school and city go into the
// dirty sets and the next epoch build re-resolves exactly those indexes.
// Last, the account joins the formation pools. Intake stops drawing once
// every target is full; the sweep goes on.
func (ev *Evolver) sweepIntake(w *World, intake, privacy sim.Streams) {
	cfg := ev.Cfg
	d := &ev.delta
	pools := ev.resetPools(w)
	school := 0 // lowest school whose target is not full
	for _, p := range w.People {
		if !p.HasAccount {
			continue
		}
		if p.Role == RoleOutside && school < len(ev.targets) {
			if age := p.TrueBirth.AgeAt(w.Now); age >= 13 && age <= 16 {
				for school < len(ev.targets) && ev.targets[school] <= 0 {
					school++
				}
				// Thin the candidate stream so intake is not simply the
				// lowest IDs: each eligible teen transfers with probability
				// 1/2 per year until targets fill.
				if rng := intake.N(int(p.ID)); school < len(ev.targets) && rng.Bool(0.5) {
					ev.targets[school]--
					ev.admit(w, p, school, age, &rng)
					d.TransferredIn++
				}
			}
		}

		if rng := privacy.N(int(p.ID)); rng.Bool(cfg.PrivacyDrift) {
			which := rng.Intn(11)
			togglePrivacy(p, which)
			ev.markUser(p.ID)
			if which == 1 || which == 10 { // PublicSearch or ListsSchool
				ev.markSchool(p.SchoolID)
			}
			if which == 1 { // PublicSearch also gates the city index
				ev.markCity(p.CurrentCity)
			}
			d.PrivacyChanged++
		}

		switch p.Role {
		case RoleStudent:
			ci := w.Schools[p.SchoolID].CohortIndex(p.GradYear)
			if ci >= 0 {
				pools.cohort[p.SchoolID][ci] = append(pools.cohort[p.SchoolID][ci], p.ID)
			}
			pools.school[p.SchoolID] = append(pools.school[p.SchoolID], p.ID)
		case RoleOutside:
			pools.outside = append(pools.outside, p.ID)
		}
	}
}

// admit makes outside-pool teen p, aged age, an incoming transfer student
// of school, drawing from p's intake stream rng.
func (ev *Evolver) admit(w *World, p *Person, school, age int, rng *sim.Rand) {
	s := w.Schools[school]
	ev.markUser(p.ID)
	ev.markSchool(p.SchoolID)
	ev.markSchool(school)
	p.Role = RoleStudent
	p.SchoolID = school
	// Ages 13-16 map inside the current four-class window; clamp for the
	// odd birthday edge cases.
	p.GradYear = min(max(w.Now.Year+(17-age), s.GradYears[0]), s.GradYears[3])
	p.ListsSchool = rng.Bool(ev.Cfg.IntakeListsSchool)
	if rng.Bool(0.8) && p.CurrentCity != s.City {
		ev.markCity(p.CurrentCity)
		ev.markCity(s.City)
		p.CurrentCity = s.City
	}
}

// togglePrivacy flips one of the eleven drift-able profile switches.
func togglePrivacy(p *Person, which int) {
	pv := &p.Privacy
	switch which {
	case 0:
		pv.FriendListPublic = !pv.FriendListPublic
	case 1:
		pv.PublicSearch = !pv.PublicSearch
	case 2:
		pv.MessageLink = !pv.MessageLink
	case 3:
		pv.ShowRelationship = !pv.ShowRelationship
	case 4:
		pv.ShowInterestedIn = !pv.ShowInterestedIn
	case 5:
		pv.ShowBirthday = !pv.ShowBirthday
	case 6:
		pv.ShowHometown = !pv.ShowHometown
	case 7:
		pv.ShowPhotos = !pv.ShowPhotos
	case 8:
		pv.ShowContact = !pv.ShowContact
	case 9:
		pv.ListsNetwork = !pv.ListsNetwork
	case 10:
		p.ListsSchool = !p.ListsSchool
	}
}

// formationPools are the deterministic partner pools formation draws from,
// filled in ID order after each person's role transitions.
type formationPools struct {
	cohort  [][4][]socialgraph.UserID // [school][cohortIndex]
	school  [][]socialgraph.UserID
	outside []socialgraph.UserID
}

// resetPools empties the Evolver's pool scratch for a new step, keeping
// the inner slices' backing arrays.
func (ev *Evolver) resetPools(w *World) *formationPools {
	pools := &ev.pools
	if len(pools.cohort) != len(w.Schools) {
		pools.cohort = make([][4][]socialgraph.UserID, len(w.Schools))
		pools.school = make([][]socialgraph.UserID, len(w.Schools))
	}
	for s := range pools.cohort {
		for ci := range pools.cohort[s] {
			pools.cohort[s][ci] = pools.cohort[s][ci][:0]
		}
		pools.school[s] = pools.school[s][:0]
	}
	pools.outside = pools.outside[:0]
	return pools
}

// formTies draws k partners for u from pool, skipping self-picks and
// pre-existing friendships. Failed picks are simply dropped — the rates
// are means, not exact quotas. A partner drawn twice in one step is
// appended twice: NormalizeEdges drops the duplicate, and the pick drew its
// random number either way, so the stream does not depend on it.
func formTies(rng *sim.Rand, prev *socialgraph.Frozen, u socialgraph.UserID, pool []socialgraph.UserID, k int, out *[]socialgraph.Edge) {
	if len(pool) == 0 {
		return
	}
	for i := 0; i < k; i++ {
		v := pool[rng.Intn(len(pool))]
		if v == u || prev.AreFriends(u, v) {
			continue
		}
		*out = append(*out, normEdge(u, v))
	}
}

// shardOut is one worker's share of the edge sweep's output.
type shardOut struct {
	dissolved, added []socialgraph.Edge
}

// sweepEdges runs fn for every user ID below n across the Evolver's
// workers and appends each worker's dissolved and added edges to
// ev.dissolved and ev.added in shard order, reusing the per-worker buffers
// across steps. Shards cover ascending ID ranges, so both lists receive
// fn's output in ascending u at any worker count. fn must derive all
// randomness from identity-keyed streams.
func (ev *Evolver) sweepEdges(n int, fn func(socialgraph.UserID, *shardOut)) {
	workers := min(ev.Workers, n)
	if workers <= 1 {
		out := shardOut{ev.dissolved, ev.added}
		for u := 0; u < n; u++ {
			fn(socialgraph.UserID(u), &out)
		}
		ev.dissolved, ev.added = out.dissolved, out.added
		return
	}
	if len(ev.outs) != workers {
		ev.outs = make([]shardOut, workers)
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for i := range ev.outs {
		out := &ev.outs[i]
		out.dissolved, out.added = out.dissolved[:0], out.added[:0]
		lo, hi := i*chunk, min((i+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				fn(socialgraph.UserID(u), out)
			}
		}()
	}
	wg.Wait()
	for _, o := range ev.outs {
		ev.dissolved = append(ev.dissolved, o.dissolved...)
		ev.added = append(ev.added, o.added...)
	}
}
