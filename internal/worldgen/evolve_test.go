package worldgen

import (
	"reflect"
	"testing"

	"hsprofiler/internal/socialgraph"
)

// TestFrozenInvalidate is the regression test for the stale-memoization
// hazard: Frozen used to CompareAndSwap(nil, …) once and serve that first
// freeze forever, so a mutation after the first Frozen call was invisible
// to every later caller.
func TestFrozenInvalidate(t *testing.T) {
	w, err := Generate(TinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	before := w.Frozen()
	// Find two account holders who are not friends.
	var a, b socialgraph.UserID = -1, -1
outer:
	for _, p := range w.People {
		if !p.HasAccount {
			continue
		}
		for _, q := range w.People {
			if q.HasAccount && q.ID != p.ID && !w.Graph.AreFriends(p.ID, q.ID) {
				a, b = p.ID, q.ID
				break outer
			}
		}
	}
	if a < 0 {
		t.Fatal("no non-adjacent account pair in tiny world")
	}
	if err := w.Mutate(func(g *socialgraph.Graph) error {
		return g.AddFriendship(a, b)
	}); err != nil {
		t.Fatal(err)
	}
	after := w.Frozen()
	if after == before || after.NumEdges() != before.NumEdges()+1 {
		t.Fatalf("post-mutation freeze served stale snapshot: %d edges before, %d after",
			before.NumEdges(), after.NumEdges())
	}
	if !after.AreFriends(a, b) {
		t.Fatal("new friendship missing from re-frozen snapshot")
	}
	// The old snapshot is immutable: in-flight readers keep a consistent view.
	if before.AreFriends(a, b) {
		t.Fatal("pre-mutation snapshot mutated in place")
	}
}

// TestMutateRejectsFrozenOnly: frozen-only worlds (binary snapshots,
// parallel generation) have no mutable graph; Mutate must fail loudly
// instead of panicking. Evolve, by contrast, works on the CSR alone.
func TestMutateRejectsFrozenOnly(t *testing.T) {
	w, err := Generate(TinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := &World{Seed: w.Seed, Now: w.Now, Schools: w.Schools, People: w.People}
	fw.SetFrozen(w.Frozen())
	if err := fw.Mutate(func(*socialgraph.Graph) error { return nil }); err == nil {
		t.Fatal("Mutate on frozen-only world did not fail")
	}
	// Invalidate must be a no-op rather than bricking the only snapshot.
	fw.Invalidate()
	if fw.Frozen() == nil {
		t.Fatal("Invalidate dropped a frozen-only world's snapshot")
	}
}

// frozenClone deep-copies people and schools but drops the mutable graph,
// producing the frozen-only shape GenerateParallel and binary snapshots
// yield.
func frozenClone(w *World) *World {
	fw := &World{Seed: w.Seed, Now: w.Now}
	fw.Schools = make([]*School, len(w.Schools))
	for i, s := range w.Schools {
		cs := *s
		fw.Schools[i] = &cs
	}
	fw.People = make([]*Person, len(w.People))
	for i, p := range w.People {
		cp := *p
		fw.People[i] = &cp
	}
	fw.SetFrozen(w.Frozen())
	return fw
}

// TestEvolveFrozenOnlyMatchesMutable: evolution must be bit-identical with
// and without a mutable graph — frozen-only worlds (metro scale, binary
// snapshots) evolve purely on the incremental CSR patch.
func TestEvolveFrozenOnlyMatchesMutable(t *testing.T) {
	w, err := Generate(TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	fw := frozenClone(w)
	for e := 1; e <= 3; e++ {
		dm, err := Evolve(w, DefaultEvolveConfig(), e, 2)
		if err != nil {
			t.Fatalf("mutable epoch %d: %v", e, err)
		}
		df, err := Evolve(fw, DefaultEvolveConfig(), e, 2)
		if err != nil {
			t.Fatalf("frozen-only epoch %d: %v", e, err)
		}
		if len(dm.Added) != len(df.Added) || len(dm.Removed) != len(df.Removed) {
			t.Fatalf("epoch %d: delta sizes diverge", e)
		}
		if !reflect.DeepEqual(dm.DirtyUsers, df.DirtyUsers) ||
			!reflect.DeepEqual(dm.DirtySchools, df.DirtySchools) ||
			!reflect.DeepEqual(dm.DirtyCities, df.DirtyCities) {
			t.Fatalf("epoch %d: dirty sets diverge", e)
		}
		if !reflect.DeepEqual(w.People, fw.People) {
			t.Fatalf("epoch %d: people diverge", e)
		}
		if !reflect.DeepEqual(w.Schools, fw.Schools) {
			t.Fatalf("epoch %d: schools diverge", e)
		}
		if !w.Frozen().Equal(fw.Frozen()) {
			t.Fatalf("epoch %d: snapshots diverge", e)
		}
	}
	if err := fw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

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
// incremental snapshot matches a from-scratch freeze of the mutated graph.
func TestEvolveInvariantsAndDynamics(t *testing.T) {
	w, err := Generate(TinyConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
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
	// The incremental ApplyDelta snapshot must equal a full re-freeze of
	// the mutated mutable graph.
	if !w.Frozen().Equal(w.Graph.Freeze()) {
		t.Fatal("incremental snapshot diverges from full freeze")
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
