package worldgen

import (
	"fmt"
	"sort"
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
	// Patch is the CSR patch phase breakdown from ApplyDeltaStats.
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
// fresh allocation storm per epoch. A fresh Evolver and a reused one
// produce bit-identical worlds — all randomness is identity-keyed, none of
// the scratch leaks into decisions.
//
// Not safe for concurrent use; the Delta returned by Step aliases the
// scratch and is valid until the next Step.
type Evolver struct {
	Cfg     EvolveConfig
	Workers int

	delta     Delta
	removed   []socialgraph.Edge
	added     []socialgraph.Edge
	dirtyBit  []bool
	dirty     []socialgraph.UserID
	schoolBit []bool
	schools   []int
	citySet   map[string]bool
	cities    []string
	targets   []int
	outs      [][]socialgraph.Edge
	pools     formationPools
	patch     socialgraph.PatchScratch
}

// NewEvolver returns an Evolver with the given per-year config. workers
// shards the per-person phases (dissolution, formation) and the CSR patch.
func NewEvolver(cfg EvolveConfig, workers int) *Evolver {
	if workers < 1 {
		workers = 1
	}
	return &Evolver{Cfg: cfg, Workers: workers, citySet: make(map[string]bool)}
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
// new epoch's snapshot without a full re-freeze. Worlds with a mutable
// graph keep it in sync through Mutate; frozen-only worlds (GenerateParallel
// output, binary snapshots) evolve on the CSR alone.
//
// Determinism: every decision draws from a stream keyed by
// (seed, "evolve/<epoch>/<phase>", personID) via sim.StreamN, never from a
// shared sequential stream, so the result is a pure function of
// (world, config, epoch) — bit-identical at any worker count, frozen-only
// or not, fresh Evolver or reused.
func (ev *Evolver) Step(w *World, epoch int) (*Delta, error) {
	cfg := ev.Cfg
	workers := ev.Workers
	if epoch < 1 {
		return nil, fmt.Errorf("worldgen: evolve epoch must be >= 1, got %d", epoch)
	}
	ev.reset(w)
	prev := w.Frozen()
	root := sim.New(w.Seed)
	label := func(phase string) string {
		return "evolve/" + strconv.Itoa(epoch) + "/" + phase
	}
	ev.delta = Delta{Epoch: epoch}
	d := &ev.delta

	// 1. The clock: one simulated year. Cohorts shift with it — last
	// year's seniors are no longer a current class, a new class year opens
	// at the bottom. Accounts whose registered age crosses the 18-year
	// boundary change policy class without any record mutation, so the
	// boundary crossers go into the dirty set here.
	before := w.Now
	w.Now = w.Now.AddYears(1)
	d.Now = w.Now
	for _, s := range w.Schools {
		for i := range s.GradYears {
			s.GradYears[i]++
		}
	}
	for _, p := range w.People {
		if p.HasAccount && p.RegisteredMinorAt(before) != p.RegisteredMinorAt(w.Now) {
			ev.markUser(p.ID)
		}
	}

	cities := distinctCities(w)

	// 2. Graduation: students whose class is no longer current become
	// alumni. Some move away — the city scatter that ages city-scoped
	// searches.
	for _, p := range w.People {
		if p.Role != RoleStudent {
			continue
		}
		if w.Schools[p.SchoolID].CohortIndex(p.GradYear) >= 0 {
			continue
		}
		rng := root.StreamN(label("grad"), int(p.ID))
		p.Role = RoleAlumnus
		ev.markUser(p.ID)
		d.Graduated++
		if rng.Bool(cfg.GradMoveAway) && len(cities) > 1 {
			if c := cities[rng.Intn(len(cities))]; c != p.CurrentCity {
				ev.markCity(p.CurrentCity)
				ev.markCity(c)
				p.CurrentCity = c
				d.MovedAway++
			}
		}
	}

	// 3. Transfer churn, out: a former student keeps only a fraction of
	// their in-school ties.
	for _, p := range w.People {
		if p.Role != RoleStudent {
			continue
		}
		rng := root.StreamN(label("churn"), int(p.ID))
		if !rng.Bool(cfg.Churn) {
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
				ev.removed = append(ev.removed, normEdge(p.ID, q))
			}
		}
	}

	// 4. Transfer churn, in: outside-pool teens young enough for a current
	// class convert to students. Population is fixed; the pool shrinks as
	// schools refill.
	d.TransferredIn = ev.evolveIntake(w, root, label("intake"))

	// 5. Privacy drift: accounts toggle one switch a year with small
	// probability. PublicSearch and ListsSchool flips move people in and
	// out of the search indexes — their school and city go into the dirty
	// sets so the next epoch build re-resolves exactly those indexes.
	for _, p := range w.People {
		if !p.HasAccount {
			continue
		}
		rng := root.StreamN(label("privacy"), int(p.ID))
		if !rng.Bool(cfg.PrivacyDrift) {
			continue
		}
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

	// 6. Dissolution (sharded): each person decides the fate of the edges
	// they own (u < v) in the pre-step snapshot, from their own stream.
	ev.removed = ev.shard(w, ev.removed, func(u socialgraph.UserID, out *[]socialgraph.Edge) {
		rng := root.StreamN(label("dissolve"), int(u))
		for _, v := range prev.Friends(u) {
			if v > u && rng.Bool(cfg.Dissolve) {
				*out = append(*out, socialgraph.Edge{A: u, B: v})
			}
		}
	})

	// 7. Formation (sharded): students initiate new ties into their
	// cohort, the rest of the school, and the outside pool. Partners come
	// from pools built in ID order; picks that duplicate an existing
	// pre-step edge are skipped, so adds never collide with kept edges.
	pools := ev.buildFormationPools(w)
	ev.added = ev.shard(w, ev.added, func(u socialgraph.UserID, out *[]socialgraph.Edge) {
		p := w.People[u]
		if p.Role != RoleStudent || !p.HasAccount || p.SchoolID < 0 {
			return
		}
		rng := root.StreamN(label("form"), int(u))
		ci := w.Schools[p.SchoolID].CohortIndex(p.GradYear)
		formTies(rng, prev, u, pools.cohort[p.SchoolID][ci], rng.Poisson(cfg.FormInCohort*p.Sociality), out)
		formTies(rng, prev, u, pools.school[p.SchoolID], rng.Poisson(cfg.FormCrossCohort*p.Sociality), out)
		formTies(rng, prev, u, pools.outside, rng.Poisson(cfg.FormOutside*p.Sociality), out)
	})

	d.Removed = socialgraph.NormalizeEdges(ev.removed)
	d.Added = socialgraph.NormalizeEdges(ev.added)
	sort.Slice(ev.dirty, func(i, j int) bool { return ev.dirty[i] < ev.dirty[j] })
	sort.Ints(ev.schools)
	sort.Strings(ev.cities)
	d.DirtyUsers = ev.dirty
	d.DirtySchools = ev.schools
	d.DirtyCities = ev.cities

	// Keep the mutable control plane in sync when one exists (through
	// Mutate, so the stale memoized snapshot is invalidated). Frozen-only
	// worlds skip this: the CSR patch below is the whole apply.
	if w.Graph != nil {
		if err := w.Mutate(func(g *socialgraph.Graph) error {
			for _, e := range d.Removed {
				g.RemoveFriendship(e.A, e.B)
			}
			return addAll(g, d.Added)
		}); err != nil {
			return nil, err
		}
	}
	// Patch the pre-step CSR into the next snapshot — dirty rows merged,
	// clean spans copied wholesale, nothing re-sorted, and the patch's
	// working memory reused from the previous step.
	next, st, err := socialgraph.ApplyDeltaScratch(prev, d.Added, d.Removed, workers, &ev.patch)
	if err != nil {
		return nil, fmt.Errorf("worldgen: evolve epoch %d: %w", epoch, err)
	}
	d.Patch = st
	w.SetFrozen(next)
	return d, nil
}

// reset re-arms the scratch for a new step, keeping backing arrays.
func (ev *Evolver) reset(w *World) {
	ev.removed = ev.removed[:0]
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
	for c := range ev.citySet {
		delete(ev.citySet, c)
	}
	ev.cities = ev.cities[:0]
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

func addAll(g *socialgraph.Graph, edges []socialgraph.Edge) error {
	for _, e := range edges {
		if err := g.AddFriendship(e.A, e.B); err != nil {
			return err
		}
	}
	return nil
}

func normEdge(a, b socialgraph.UserID) socialgraph.Edge {
	if a > b {
		a, b = b, a
	}
	return socialgraph.Edge{A: a, B: b}
}

// distinctCities collects the cities people live in, in first-seen (ID)
// order — a deterministic move-away destination pool.
func distinctCities(w *World) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range w.People {
		if p.CurrentCity != "" && !seen[p.CurrentCity] {
			seen[p.CurrentCity] = true
			out = append(out, p.CurrentCity)
		}
	}
	return out
}

// evolveIntake converts outside-pool teens into incoming transfer
// students, refilling each school toward its target. Candidates and
// assignments are drawn in ID order from one labelled stream, so the
// outcome is independent of everything else in the step.
func (ev *Evolver) evolveIntake(w *World, root *sim.Rand, lbl string) int {
	cfg := ev.Cfg
	if cap(ev.targets) < len(w.Schools) {
		ev.targets = make([]int, len(w.Schools))
	}
	targets := ev.targets[:len(w.Schools)]
	for i := range targets {
		targets[i] = 0
	}
	for _, p := range w.People {
		if p.Role == RoleStudent {
			targets[p.SchoolID]++
		}
	}
	for i := range targets {
		targets[i] = int(float64(targets[i]) * cfg.Intake)
	}
	in := 0
	for _, p := range w.People {
		if p.Role != RoleOutside || !p.HasAccount {
			continue
		}
		age := p.TrueBirth.AgeAt(w.Now)
		if age < 13 || age > 16 {
			continue
		}
		rng := root.StreamN(lbl, int(p.ID))
		school := -1
		for sid, left := range targets {
			if left > 0 {
				school = sid
				break
			}
		}
		if school < 0 {
			break
		}
		// Thin the candidate stream so intake is not simply the lowest
		// IDs: each eligible teen transfers with probability 1/2 per year
		// until targets fill.
		if !rng.Bool(0.5) {
			continue
		}
		targets[school]--
		s := w.Schools[school]
		ev.markUser(p.ID)
		ev.markSchool(p.SchoolID)
		ev.markSchool(school)
		p.Role = RoleStudent
		p.SchoolID = school
		// Ages 13-16 map inside the current four-class window; clamp for
		// the odd birthday edge cases.
		gy := w.Now.Year + (17 - age)
		if gy < s.GradYears[0] {
			gy = s.GradYears[0]
		}
		if gy > s.GradYears[3] {
			gy = s.GradYears[3]
		}
		p.GradYear = gy
		p.ListsSchool = rng.Bool(cfg.IntakeListsSchool)
		if rng.Bool(0.8) && p.CurrentCity != s.City {
			ev.markCity(p.CurrentCity)
			ev.markCity(s.City)
			p.CurrentCity = s.City
		}
		in++
	}
	return in
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
// built in ID order after the step's role transitions.
type formationPools struct {
	cohort  [][4][]socialgraph.UserID // [school][cohortIndex]
	school  [][]socialgraph.UserID
	outside []socialgraph.UserID
}

// buildFormationPools fills the Evolver's pool scratch, reusing the inner
// slices' backing arrays across steps.
func (ev *Evolver) buildFormationPools(w *World) *formationPools {
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
	for _, p := range w.People {
		if !p.HasAccount {
			continue
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

// shard runs fn for every user ID across the Evolver's workers and appends
// the per-worker edge lists to dst in shard order, reusing the per-worker
// buffers across steps. fn must derive all randomness from identity-keyed
// streams, so the concatenation order never matters once NormalizeEdges
// sorts the result.
func (ev *Evolver) shard(w *World, dst []socialgraph.Edge, fn func(socialgraph.UserID, *[]socialgraph.Edge)) []socialgraph.Edge {
	n := len(w.People)
	workers := ev.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for u := 0; u < n; u++ {
			fn(socialgraph.UserID(u), &dst)
		}
		return dst
	}
	if len(ev.outs) != workers {
		ev.outs = make([][]socialgraph.Edge, workers)
	}
	for i := range ev.outs {
		ev.outs[i] = ev.outs[i][:0]
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				fn(socialgraph.UserID(u), &ev.outs[i])
			}
		}(i, lo, hi)
	}
	wg.Wait()
	for _, o := range ev.outs {
		dst = append(dst, o...)
	}
	return dst
}
