package worldgen

import (
	"reflect"
	"testing"

	"hsprofiler/internal/socialgraph"
)

// TestEvolverReuseMatchesFresh: a single Evolver reused across steps (the
// scratch-recycling fast path) must match throwaway per-step Evolve calls
// bit for bit.
func TestEvolverReuseMatchesFresh(t *testing.T) {
	w1, err := Generate(TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvolver(DefaultEvolveConfig(), 3)
	for e := 1; e <= 4; e++ {
		dr, err := ev.Step(w1, e)
		if err != nil {
			t.Fatal(err)
		}
		df, err := Evolve(w2, DefaultEvolveConfig(), e, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dr.Added, df.Added) || !reflect.DeepEqual(dr.Removed, df.Removed) {
			t.Fatalf("epoch %d: edge deltas diverge between reused and fresh evolver", e)
		}
		if !reflect.DeepEqual(dr.DirtyUsers, df.DirtyUsers) {
			t.Fatalf("epoch %d: dirty users diverge between reused and fresh evolver", e)
		}
		if !reflect.DeepEqual(w1.People, w2.People) || !w1.Frozen().Equal(w2.Frozen()) {
			t.Fatalf("epoch %d: worlds diverge between reused and fresh evolver", e)
		}
	}
}

// TestEvolveDirtySetsCoverChanges: every person whose record (or registered
// age class) changed must appear in DirtyUsers, every search-index
// membership flip must dirty its school, and every city-list membership
// flip must dirty the old and new city. The incremental epoch build shares
// everything not in the dirty sets, so an omission here would serve stale
// views.
func TestEvolveDirtySetsCoverChanges(t *testing.T) {
	w, err := Generate(TinyConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	inSchoolIdx := func(p *Person) (int, bool) {
		if p.HasAccount && p.Privacy.PublicSearch && p.SchoolID >= 0 && p.ListsSchool {
			return p.SchoolID, true
		}
		return -1, false
	}
	inCityIdx := func(p *Person) (string, bool) {
		if p.HasAccount && p.Privacy.PublicSearch && p.ListsCity && p.CurrentCity != "" {
			return p.CurrentCity, true
		}
		return "", false
	}
	for e := 1; e <= 3; e++ {
		before := make([]Person, len(w.People))
		for i, p := range w.People {
			before[i] = *p
		}
		beforeNow := w.Now
		d, err := Evolve(w, DefaultEvolveConfig(), e, 2)
		if err != nil {
			t.Fatal(err)
		}
		dirtyUser := make(map[socialgraph.UserID]bool, len(d.DirtyUsers))
		for _, u := range d.DirtyUsers {
			dirtyUser[u] = true
		}
		dirtySchool := make(map[int]bool, len(d.DirtySchools))
		for _, s := range d.DirtySchools {
			dirtySchool[s] = true
		}
		dirtyCity := make(map[string]bool, len(d.DirtyCities))
		for _, c := range d.DirtyCities {
			dirtyCity[c] = true
		}
		for i, p := range w.People {
			old := &before[i]
			if !reflect.DeepEqual(*old, *p) && !dirtyUser[p.ID] {
				t.Fatalf("epoch %d: person %d changed but is not in DirtyUsers", e, p.ID)
			}
			if p.HasAccount && p.RegisteredMinorAt(beforeNow) != p.RegisteredMinorAt(w.Now) && !dirtyUser[p.ID] {
				t.Fatalf("epoch %d: person %d crossed the 18-year boundary but is not in DirtyUsers", e, p.ID)
			}
			oldS, oldIn := inSchoolIdx(old)
			newS, newIn := inSchoolIdx(p)
			if oldIn != newIn || oldS != newS {
				if oldIn && !dirtySchool[oldS] {
					t.Fatalf("epoch %d: person %d left school index %d but school not dirty", e, p.ID, oldS)
				}
				if newIn && !dirtySchool[newS] {
					t.Fatalf("epoch %d: person %d joined school index %d but school not dirty", e, p.ID, newS)
				}
			}
			oldC, oldInC := inCityIdx(old)
			newC, newInC := inCityIdx(p)
			if oldInC != newInC || oldC != newC {
				if oldInC && !dirtyCity[oldC] {
					t.Fatalf("epoch %d: person %d left city list %q but city not dirty", e, p.ID, oldC)
				}
				if newInC && !dirtyCity[newC] {
					t.Fatalf("epoch %d: person %d joined city list %q but city not dirty", e, p.ID, newC)
				}
			}
		}
	}
}

// evolveYears runs n evolution steps and returns the deltas.
func evolveYears(t *testing.T, w *World, n, workers int) []*Delta {
	t.Helper()
	cfg := DefaultEvolveConfig()
	var out []*Delta
	for e := 1; e <= n; e++ {
		d, err := Evolve(w, cfg, e, workers)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		out = append(out, d)
	}
	return out
}

// TestEvolveDeterministicAcrossWorkers: identity-keyed streams make the
// evolved world a pure function of (world, config, epoch) — bit-identical
// at any worker count.
func TestEvolveDeterministicAcrossWorkers(t *testing.T) {
	worlds := make([]*World, 0, 3)
	for _, workers := range []int{1, 4, 13} {
		w, err := Generate(TinyConfig(), 99)
		if err != nil {
			t.Fatal(err)
		}
		evolveYears(t, w, 3, workers)
		worlds = append(worlds, w)
	}
	base := worlds[0]
	for i, w := range worlds[1:] {
		if w.Now != base.Now {
			t.Fatalf("world %d clock diverged: %v vs %v", i+1, w.Now, base.Now)
		}
		if !reflect.DeepEqual(w.Schools, base.Schools) {
			t.Fatalf("world %d schools diverged", i+1)
		}
		if !reflect.DeepEqual(w.People, base.People) {
			t.Fatalf("world %d people diverged", i+1)
		}
		if !w.Frozen().Equal(base.Frozen()) {
			t.Fatalf("world %d graph diverged", i+1)
		}
	}
}

// TestEvolveInvariantsAndDynamics: the evolved world keeps every
// structural invariant, the clock and cohorts advance together, and the
// incremental snapshot equals a from-scratch build of the generated edge
// set with every year's delta applied.
func TestEvolveInvariantsAndDynamics(t *testing.T) {
	w, err := Generate(TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	edges := make(map[socialgraph.Edge]bool)
	f0 := w.Frozen()
	f0.ForEachUser(func(u socialgraph.UserID) {
		f0.ForEachFriend(u, func(v socialgraph.UserID) {
			if u < v {
				edges[socialgraph.Edge{A: u, B: v}] = true
			}
		})
	})
	year0 := w.Now.Year
	students0 := w.CountRole(RoleStudent)
	alumni0 := w.CountRole(RoleAlumnus)
	deltas := evolveYears(t, w, 3, 2)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if w.Now.Year != year0+3 {
		t.Fatalf("clock at %d, want %d", w.Now.Year, year0+3)
	}
	if got := w.Schools[0].GradYears[0]; got != year0+3 {
		t.Fatalf("senior class %d, want %d", got, year0+3)
	}
	grads := 0
	for _, d := range deltas {
		grads += d.Graduated
		if len(d.Added) == 0 || len(d.Removed) == 0 {
			t.Fatalf("epoch %d: degenerate delta (+%d/-%d)", d.Epoch, len(d.Added), len(d.Removed))
		}
	}
	if grads == 0 {
		t.Fatal("no cohort graduated in three years")
	}
	if got := w.CountRole(RoleAlumnus); got != alumni0+grads {
		t.Fatalf("alumni %d, want %d", got, alumni0+grads)
	}
	if w.CountRole(RoleStudent) == students0 && deltas[0].TransferredOut+deltas[0].TransferredIn == 0 {
		t.Fatal("no churn at default rates")
	}
	// The rebuild oracle: patch the plain edge set with each year's delta,
	// build it from scratch, and compare with the incrementally patched
	// snapshot.
	for _, d := range deltas {
		for _, e := range d.Removed {
			if !edges[e] {
				t.Fatalf("epoch %d removes absent edge %v", d.Epoch, e)
			}
			delete(edges, e)
		}
		for _, e := range d.Added {
			if edges[e] {
				t.Fatalf("epoch %d adds existing edge %v", d.Epoch, e)
			}
			edges[e] = true
		}
	}
	fb := socialgraph.NewFrozenBuilder(len(w.People))
	for _, p := range w.People {
		if p.HasAccount {
			if err := fb.AddUser(p.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	list := make([]socialgraph.Edge, 0, len(edges))
	for e := range edges {
		list = append(list, e)
	}
	if err := fb.AddShard(socialgraph.NormalizeEdges(list)); err != nil {
		t.Fatal(err)
	}
	want, err := fb.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Frozen().Equal(want) {
		t.Fatal("incremental snapshot diverges from a from-scratch build of the patched edge set")
	}
}

// TestEvolveStaticWorldUntouched: generation alone never runs evolution —
// a freshly generated world is byte-identical whether or not evolve code
// exists (golden fingerprints cover the cross-version half; this guards
// that building a platform-style Frozen after generation changes nothing).
func TestEvolveStaticWorldUntouched(t *testing.T) {
	w1, err := Generate(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1.People, w2.People) || !w1.Frozen().Equal(w2.Frozen()) {
		t.Fatal("generation is not reproducible")
	}
}

// TestEvolvedCloneLeavesOriginal: evolving a clone advances the clone's
// classes, people and graph, never the original's, so the original keeps
// its fingerprint and its invariants.
func TestEvolvedCloneLeavesOriginal(t *testing.T) {
	w, err := GenerateParallel(TinyConfig(), 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	before, err := w.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	classes := w.Schools[0].GradYears
	c := w.Clone()
	if _, err := Evolve(c, DefaultEvolveConfig(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if c.Schools[0].GradYears == classes {
		t.Fatalf("the evolved clone kept classes %v", classes)
	}
	if got := w.Schools[0].GradYears; got != classes {
		t.Fatalf("evolving a clone moved the original's classes from %v to %v", classes, got)
	}
	if after, err := w.Fingerprint(); err != nil || after != before {
		t.Fatalf("evolving a clone changed the original's fingerprint: %s (%v), want %s", after, err, before)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("the original fails its invariants after a clone evolved: %v", err)
	}
}
