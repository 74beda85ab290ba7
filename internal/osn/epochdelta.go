package osn

import (
	"time"

	"hsprofiler/internal/socialgraph"
	"hsprofiler/internal/worldgen"
)

// buildBreakdown is the phase accounting of one incremental epoch build.
type buildBreakdown struct {
	incremental   bool
	dirtyProfiles int
	dirtyRows     int
	profiles      time.Duration
	indexes       time.Duration
}

// deltaConsistent sanity-checks the delta's bookkeeping against the world
// before the incremental build trusts it: same ID space, same school table
// size, and an edge count that adds up. A mismatch means the delta does not
// describe the step that produced the current snapshot — fall back to the
// full build rather than patch from a wrong baseline.
func deltaConsistent(prev *epoch, w *worldgen.World, d *worldgen.Delta) bool {
	nf := w.Frozen()
	pf := prev.read.frozen
	return nf.NumIDs() == pf.NumIDs() &&
		len(prev.schools) == len(w.Schools) &&
		nf.NumEdges() == pf.NumEdges()+len(d.Added)-len(d.Removed)
}

// buildEpochDelta builds the next epoch by patching the previous one with
// the evolution step's dirty sets instead of re-resolving the world:
//
//   - profiles and policy flags are re-rendered only for d.DirtyUsers (the
//     people whose records or age class changed); every other entry is the
//     previous epoch's pointer, which a full rebuild would reproduce
//     byte-for-byte because rendering is a pure function of unchanged
//     inputs;
//   - friend lists need no view work at all: FriendPage renders from the
//     CSR row at serve time, so the incremental CSR patch the evolve step
//     already performed IS the friend-list update;
//   - per-school search indexes and city lists are patched (dirty members
//     struck by a linear merge, re-qualified members merged back in) only
//     for d.DirtySchools / d.DirtyCities, and shared otherwise.
//
// The previous epoch is read-only throughout and keeps serving concurrent
// readers; shared state is immutable by construction. Display names are
// immutable platform-wide, so the whole names array is shared every epoch.
//
// Determinism: every patched structure equals what buildEpoch would produce
// from the same world, because the dirty sets are a superset of what
// changed (worldgen guarantees coverage; TestEvolveDirtySetsCoverChanges
// pins it) and patching an entry re-runs the same pure resolution the full
// build runs.
func (p *Platform) buildEpochDelta(seq uint64, pol *Policy, prev *epoch, d *worldgen.Delta) (*epoch, buildBreakdown) {
	w := p.world
	n := len(w.People)
	old := prev.read
	var bd buildBreakdown
	bd.incremental = true

	e := newEpoch(seq, w, pol)

	// Phase 1: profiles and policy flags. Copy-on-write — array contents
	// are copied once (slice headers and profile pointers, not rendered
	// state), then only dirty users are re-resolved.
	tp := time.Now()
	rp := &readPlane{
		frozen:         w.Frozen(),
		names:          old.names, // display names never change
		regMinor:       make([]bool, n),
		searchEligible: make([]bool, n),
		friendVisible:  make([]bool, n),
		profiles:       make([]*PublicProfile, n),
	}
	rp.frozen.Retain()
	copy(rp.regMinor, old.regMinor)
	copy(rp.searchEligible, old.searchEligible)
	copy(rp.friendVisible, old.friendVisible)
	copy(rp.profiles, old.profiles)
	e.read = rp
	render := newProfileRenderer(w, pol, p.pub, rp.names)

	for _, u := range d.DirtyUsers {
		person := w.People[u]
		if !person.HasAccount {
			continue
		}
		bd.dirtyProfiles++
		rp.regMinor[u] = person.RegisteredMinorAt(w.Now)
		rp.searchEligible[u] = pol.MinorsSearchable || !rp.regMinor[u]
		rp.friendVisible[u] = visibleToStranger(pol, person, rp.regMinor[u], AttrFriendList)
		rp.profiles[u] = render.profile(u, rp.regMinor[u])
	}
	bd.profiles = time.Since(tp)

	// Friend lists: nothing to do. FriendPage renders from the (already
	// patched) CSR row, friendVisible and names at serve time, so the
	// rows the edge delta touched — reported as dirtyRows — were updated
	// the moment the snapshot was patched, and a visibility flip takes
	// effect everywhere instantly, §8 filter included.
	bd.dirtyRows = d.Patch.DirtyRows

	// Phase 3: search and city indexes. Clean schools and cities share the
	// previous epoch's slices outright; dirty ones are patched by a linear
	// merge — every dirty user struck from the old list, every currently
	// qualifying dirty user merged back in ascending order — which
	// reproduces the full build's sorted result exactly.
	ti := time.Now()
	dirtyBit := make([]bool, n)
	for _, u := range d.DirtyUsers {
		dirtyBit[u] = true
	}
	schoolAdds := make(map[int][]socialgraph.UserID)
	cityAdds := make(map[string][]socialgraph.UserID)
	keys := cityKeys{}
	for _, u := range d.DirtyUsers { // ascending, so the add lists are sorted
		person := w.People[u]
		if !person.HasAccount || !person.Privacy.PublicSearch {
			continue
		}
		if person.SchoolID >= 0 && person.ListsSchool {
			schoolAdds[person.SchoolID] = append(schoolAdds[person.SchoolID], u)
		}
		if person.ListsCity && person.CurrentCity != "" {
			key := keys.of(person.CurrentCity)
			cityAdds[key] = append(cityAdds[key], u)
		}
	}
	e.searchIndex = make([][]socialgraph.UserID, len(w.Schools))
	copy(e.searchIndex, prev.searchIndex)
	for _, s := range d.DirtySchools {
		if s < 0 || s >= len(e.searchIndex) {
			continue
		}
		e.searchIndex[s] = patchIDList(prev.searchIndex[s], dirtyBit, schoolAdds[s])
	}
	e.cityIndex = make(map[string][]socialgraph.UserID, len(prev.cityIndex))
	for k, v := range prev.cityIndex {
		e.cityIndex[k] = v
	}
	dirtyKeys := make(map[string]bool, len(d.DirtyCities))
	for _, c := range d.DirtyCities {
		dirtyKeys[keys.of(c)] = true
	}
	for key := range dirtyKeys {
		patched := patchIDList(prev.cityIndex[key], dirtyBit, cityAdds[key])
		if len(patched) == 0 {
			// The full build never materializes empty city lists.
			delete(e.cityIndex, key)
		} else {
			e.cityIndex[key] = patched
		}
	}
	bd.indexes = time.Since(ti)
	return e, bd
}

// patchIDList strikes every dirty member from old and merges adds (sorted
// ascending, all dirty) back in, preserving ascending order. Returns nil
// when the result is empty, matching the full build (which never appends
// to an empty list it would then keep).
func patchIDList(old []socialgraph.UserID, dirty []bool, adds []socialgraph.UserID) []socialgraph.UserID {
	out := make([]socialgraph.UserID, 0, len(old)+len(adds))
	ai := 0
	for _, u := range old {
		if dirty[u] {
			continue
		}
		for ai < len(adds) && adds[ai] < u {
			out = append(out, adds[ai])
			ai++
		}
		out = append(out, u)
	}
	out = append(out, adds[ai:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}
