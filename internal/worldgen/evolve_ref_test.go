package worldgen

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// stepReference is Evolver.Step phase by phase: one pass over the people
// per phase, in the order the phases are listed, each row's owned edges
// found by binary search, every phase sequential, and the next snapshot
// built from scratch rather than patched. Its Delta's Patch carries only
// DirtyRows, counted from the edge delta's endpoints.
// FuzzEvolveMatchesReference holds Step to it.
func stepReference(w *World, cfg EvolveConfig, epoch int) (*Delta, error) {
	ev := NewEvolver(cfg, 1)
	ev.reset(w)
	prev := w.Frozen()
	root := sim.New(w.Seed)
	streams := func(phase string) sim.Streams {
		return root.Streams("evolve/" + strconv.Itoa(epoch) + "/" + phase)
	}
	grad, churn, intake := streams("grad"), streams("churn"), streams("intake")
	privacy, dissolve, form := streams("privacy"), streams("dissolve"), streams("form")
	ev.delta = Delta{Epoch: epoch}
	d := &ev.delta

	// 1. The clock, and the accounts whose registered age class crosses
	// the 18-year boundary.
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

	// 2. Graduation, and some graduates move away.
	for _, p := range w.People {
		if p.Role != RoleStudent {
			continue
		}
		if w.Schools[p.SchoolID].CohortIndex(p.GradYear) >= 0 {
			continue
		}
		rng := grad.N(int(p.ID))
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

	// 3. Transfer churn, out.
	for _, p := range w.People {
		if p.Role != RoleStudent {
			continue
		}
		rng := churn.N(int(p.ID))
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
				ev.churned = append(ev.churned, normEdge(p.ID, q))
			}
		}
	}

	// 4. Transfer churn, in.
	d.TransferredIn = ev.evolveIntake(w, intake)

	// 5. Privacy drift.
	for _, p := range w.People {
		if !p.HasAccount {
			continue
		}
		rng := privacy.N(int(p.ID))
		if !rng.Bool(cfg.PrivacyDrift) {
			continue
		}
		which := rng.Intn(11)
		togglePrivacy(p, which)
		ev.markUser(p.ID)
		if which == 1 || which == 10 {
			ev.markSchool(p.SchoolID)
		}
		if which == 1 {
			ev.markCity(p.CurrentCity)
		}
		d.PrivacyChanged++
	}

	// 6. Dissolution: each person's owned suffix, found by binary search.
	for u := range len(w.People) {
		u := socialgraph.UserID(u)
		row := prev.Friends(u)
		i, _ := slices.BinarySearch(row, u+1)
		owned := row[i:]
		rng := dissolve.N(int(u))
		rng.Hits(cfg.Dissolve, len(owned), func(j int) {
			ev.dissolved = append(ev.dissolved, socialgraph.Edge{A: u, B: owned[j]})
		})
	}

	// 7. Formation, from pools built after every role transition.
	pools := ev.buildFormationPools(w)
	for _, p := range w.People {
		if p.Role != RoleStudent || !p.HasAccount || p.SchoolID < 0 {
			continue
		}
		rng := form.N(int(p.ID))
		ci := w.Schools[p.SchoolID].CohortIndex(p.GradYear)
		formTies(&rng, prev, p.ID, pools.cohort[p.SchoolID][ci], rng.Poisson(cfg.FormInCohort*p.Sociality), &ev.added)
		formTies(&rng, prev, p.ID, pools.school[p.SchoolID], rng.Poisson(cfg.FormCrossCohort*p.Sociality), &ev.added)
		formTies(&rng, prev, p.ID, pools.outside, rng.Poisson(cfg.FormOutside*p.Sociality), &ev.added)
	}

	ev.removed = socialgraph.MergeEdges(ev.removed[:0], socialgraph.NormalizeEdges(ev.churned), ev.dissolved)
	d.Removed = ev.removed
	d.Added = socialgraph.NormalizeEdges(ev.added)
	slices.Sort(ev.dirty)
	slices.Sort(ev.schools)
	slices.Sort(ev.cities)
	d.DirtyUsers = ev.dirty
	d.DirtySchools = ev.schools
	d.DirtyCities = ev.cities

	next, err := rebuildGraph(prev, d.Added, d.Removed)
	if err != nil {
		return nil, fmt.Errorf("worldgen: evolve epoch %d: %w", epoch, err)
	}
	d.Patch.DirtyRows = editedRows(d.Added, d.Removed)
	w.SetFrozen(next)
	return d, nil
}

// distinctCities collects the cities people live in, in first-seen (ID)
// order.
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

// evolveIntake counts each school's students, sets its intake target, and
// then converts outside-pool teens, in ID order, until every target is
// full.
func (ev *Evolver) evolveIntake(w *World, streams sim.Streams) int {
	cfg := ev.Cfg
	targets := ev.targets
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
		rng := streams.N(int(p.ID))
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

// buildFormationPools fills the pools in one pass over the people.
func (ev *Evolver) buildFormationPools(w *World) *formationPools {
	pools := ev.resetPools(w)
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

// rebuildGraph builds prev's edges minus removed plus added from scratch
// with a FrozenBuilder over prev's users. Every removal must be an edge of
// prev and every addition's endpoints users of prev; Build rejects an
// addition prev keeps.
func rebuildGraph(prev *socialgraph.Frozen, added, removed []socialgraph.Edge) (*socialgraph.Frozen, error) {
	gone := make(map[socialgraph.Edge]bool, len(removed))
	for _, e := range removed {
		if !prev.AreFriends(e.A, e.B) {
			return nil, fmt.Errorf("removes absent edge %v", e)
		}
		gone[e] = true
	}
	for _, e := range added {
		if !prev.HasUser(e.A) || !prev.HasUser(e.B) {
			return nil, fmt.Errorf("adds edge %v with an absent endpoint", e)
		}
	}
	fb := socialgraph.NewFrozenBuilder(prev.NumIDs())
	var kept []socialgraph.Edge
	var err error
	prev.ForEachUser(func(u socialgraph.UserID) {
		if e := fb.AddUser(u); e != nil && err == nil {
			err = e
		}
		for _, v := range prev.Friends(u) {
			if e := (socialgraph.Edge{A: u, B: v}); u < v && !gone[e] {
				kept = append(kept, e)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := fb.AddShard(kept); err != nil {
		return nil, err
	}
	if err := fb.AddShard(added); err != nil {
		return nil, err
	}
	return fb.Build(1)
}

// editedRows counts the rows an edge of added or removed touches.
func editedRows(added, removed []socialgraph.Edge) int {
	rows := map[socialgraph.UserID]bool{}
	for _, list := range [][]socialgraph.Edge{added, removed} {
		for _, e := range list {
			rows[e.A], rows[e.B] = true, true
		}
	}
	return len(rows)
}

// Evolver modes FuzzEvolveMatchesReference draws.
const (
	evolveFresh    = iota // a throwaway Evolver per year
	evolveReused          // one Evolver across the years
	evolveReplaced        // one Evolver, and the snapshot replaced between years
	evolveModes
)

// FuzzEvolveMatchesReference holds Step to stepReference on TinyConfig and
// CityConfig(1) worlds of any seed, over 1–6 years at 1–4 workers, with a
// throwaway Evolver per year, one Evolver across the years (which carries
// each row's split from year to year), or one Evolver whose world gets an
// edited snapshot before every year after the first (so the split it
// carried no longer holds and must be recomputed). After every year each
// Delta field — both edge lists, the three dirty lists, the five counters
// and the patch's dirty-row count — and the world's fingerprint must
// match, and a carried split must equal each row's count of lower friends.
func FuzzEvolveMatchesReference(f *testing.F) {
	for mode := range uint8(evolveModes) {
		f.Add(false, uint64(42), uint8(5), uint8(0), mode)
		f.Add(false, uint64(7), uint8(3), uint8(3), mode)
		f.Add(true, uint64(2013), uint8(2), uint8(1), mode)
	}
	f.Add(true, uint64(5), uint8(0), uint8(2), uint8(evolveReused))
	f.Fuzz(func(t *testing.T, city bool, seed uint64, years, workers, mode uint8) {
		cfg := TinyConfig()
		if city {
			cfg = CityConfig(1)
		}
		nYears, nWorkers, mode := 1+int(years%6), 1+int(workers%4), mode%evolveModes
		got, err := GenerateParallel(cfg, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := got.Clone()
		ecfg := DefaultEvolveConfig()
		ev := NewEvolver(ecfg, nWorkers)
		edits := rand.New(rand.NewSource(int64(seed)))
		for year := 1; year <= nYears; year++ {
			if mode == evolveReplaced && year > 1 {
				edited := editSnapshot(t, edits, got.Frozen())
				got.SetFrozen(edited)
				want.SetFrozen(edited)
			}
			if mode == evolveFresh {
				ev = NewEvolver(ecfg, nWorkers)
			}
			dg, err := ev.Step(got, year)
			if err != nil {
				t.Fatalf("year %d: %v", year, err)
			}
			dw, err := stepReference(want, ecfg, year)
			if err != nil {
				t.Fatalf("year %d: reference: %v", year, err)
			}
			sameDelta(t, year, dg, dw)
			checkSplit(t, year, ev, got)
			fg, err := got.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fw, err := want.Fingerprint(); err != nil || fg != fw {
				t.Fatalf("year %d: world fingerprint %s, reference %s (%v)", year, fg, fw, err)
			}
		}
	})
}

// editSnapshot returns f with about one edge in eight removed and a few
// edges added between users, built from scratch.
func editSnapshot(t *testing.T, rng *rand.Rand, f *socialgraph.Frozen) *socialgraph.Frozen {
	t.Helper()
	var adds, removes []socialgraph.Edge
	users := f.Users()
	for _, u := range users {
		for _, v := range f.Friends(u) {
			if u < v && rng.Intn(8) == 0 {
				removes = append(removes, socialgraph.Edge{A: u, B: v})
			}
		}
	}
	for i := 0; i < len(users)/8 && len(users) > 1; i++ {
		u, v := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
		if u != v && !f.AreFriends(u, v) {
			adds = append(adds, normEdge(u, v))
		}
	}
	next, err := rebuildGraph(f, socialgraph.NormalizeEdges(adds), removes)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// sameDelta fails unless got and want agree on everything but the patch
// timings.
func sameDelta(t *testing.T, year int, got, want *Delta) {
	t.Helper()
	if !slices.Equal(got.Added, want.Added) || !slices.Equal(got.Removed, want.Removed) {
		t.Fatalf("year %d: edge delta +%d/-%d, reference +%d/-%d", year, len(got.Added), len(got.Removed), len(want.Added), len(want.Removed))
	}
	if !slices.Equal(got.DirtyUsers, want.DirtyUsers) || !slices.Equal(got.DirtySchools, want.DirtySchools) || !slices.Equal(got.DirtyCities, want.DirtyCities) {
		t.Fatalf("year %d: dirty lists diverge from the reference", year)
	}
	type counts struct {
		Epoch                                                    int
		Now                                                      sim.Date
		Graduated, TransferredOut, TransferredIn, PrivacyChanged int
		MovedAway, DirtyRows                                     int
	}
	pick := func(d *Delta) counts {
		return counts{d.Epoch, d.Now, d.Graduated, d.TransferredOut, d.TransferredIn, d.PrivacyChanged, d.MovedAway, d.Patch.DirtyRows}
	}
	if g, w := pick(got), pick(want); g != w {
		t.Fatalf("year %d: delta %+v, reference %+v", year, g, w)
	}
}

// checkSplit fails unless the split ev carries for w's snapshot, if any,
// counts each row's friends below the row.
func checkSplit(t *testing.T, year int, ev *Evolver, w *World) {
	t.Helper()
	f := w.Frozen()
	if ev.splitOf != f {
		t.Fatalf("year %d: the Evolver carries no split for the snapshot it installed", year)
	}
	for u := range ev.split {
		row := f.Friends(socialgraph.UserID(u))
		if want, _ := slices.BinarySearch(row, socialgraph.UserID(u)); int(ev.split[u]) != want {
			t.Fatalf("year %d: row %d split %d, want %d", year, u, ev.split[u], want)
		}
	}
}
