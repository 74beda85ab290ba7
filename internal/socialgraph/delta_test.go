package socialgraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestApplyDeltaMatchesMutableRebuild: the incremental CSR rebuild must be
// structurally identical to mutating the map graph and re-freezing.
func TestApplyDeltaMatchesMutableRebuild(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := randomGraph(t, 200, 800, 7)
		f := g.Freeze()
		rng := rand.New(rand.NewSource(11))

		var removes []Edge
		for u := 0; u < 200; u++ {
			for _, v := range f.row(UserID(u)) {
				if v > UserID(u) && rng.Float64() < 0.2 {
					removes = append(removes, Edge{UserID(u), v})
				}
			}
		}
		var adds []Edge
		for len(adds) < 150 {
			a := UserID(rng.Intn(200))
			b := UserID(rng.Intn(200))
			if a == b || f.AreFriends(a, b) {
				continue
			}
			adds = append(adds, Edge{a, b})
		}
		adds = NormalizeEdges(adds)
		removes = NormalizeEdges(removes)

		next, _, err := ApplyDelta(f, adds, removes, workers, new(PatchScratch))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := next.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}

		for _, e := range removes {
			g.RemoveFriendship(e.A, e.B)
		}
		for _, e := range adds {
			if err := g.AddFriendship(e.A, e.B); err != nil {
				t.Fatal(err)
			}
		}
		want := g.Freeze()
		if !next.Equal(want) {
			t.Fatalf("workers=%d: incremental rebuild diverges from mutate-and-freeze", workers)
		}
	}
}

// TestApplyDeltaRejectsBadDeltas: removals of absent edges, re-adds of
// existing edges, and adds touching absent users must all fail loudly
// instead of corrupting the snapshot.
func TestApplyDeltaRejectsBadDeltas(t *testing.T) {
	g := New()
	for u := 0; u < 4; u++ {
		g.AddUser(UserID(u))
	}
	g.AddFriendship(0, 1)
	g.AddFriendship(1, 2)
	f := g.Freeze()

	if _, _, err := ApplyDelta(f, nil, []Edge{{0, 2}}, 1, new(PatchScratch)); err == nil {
		t.Fatal("removing a non-existent edge did not fail")
	}
	if _, _, err := ApplyDelta(f, []Edge{{0, 1}}, nil, 1, new(PatchScratch)); err == nil {
		t.Fatal("re-adding an existing edge did not fail")
	}
	// Out-of-range endpoints fail before any lookup by ID, whatever their
	// order.
	for _, e := range []Edge{{3, 9}, {9, 3}, {0, -1}, {-1, 2}} {
		if _, _, err := ApplyDelta(f, []Edge{e}, nil, 1, new(PatchScratch)); err == nil {
			t.Fatalf("adding edge %v outside the ID space did not fail", e)
		}
		if _, _, err := ApplyDelta(f, nil, []Edge{e}, 1, new(PatchScratch)); err == nil {
			t.Fatalf("removing edge %v outside the ID space did not fail", e)
		}
	}
	// Removals a row or the snapshot cannot cover fail without sizing
	// anything by them.
	if _, _, err := ApplyDelta(f, nil, []Edge{{0, 2}, {0, 3}}, 1, new(PatchScratch)); err == nil {
		t.Fatal("removing more edges than a row has did not fail")
	}
	if _, _, err := ApplyDelta(f, nil, []Edge{{0, 2}, {0, 3}, {1, 3}}, 1, new(PatchScratch)); err == nil {
		t.Fatal("removing more edges than the snapshot has did not fail")
	}

	// The empty delta is the identity.
	same, _, err := ApplyDelta(f, nil, nil, 1, new(PatchScratch))
	if err != nil {
		t.Fatal(err)
	}
	if !same.Equal(f) {
		t.Fatal("empty delta changed the snapshot")
	}

	// Unnormalized patch lists violate the contract and must fail loudly —
	// the incremental merge depends on sorted inputs.
	if _, _, err := ApplyDelta(f, []Edge{{2, 0}}, nil, 1, new(PatchScratch)); err == nil {
		t.Fatal("reversed add edge did not fail")
	}
	if _, _, err := ApplyDelta(f, []Edge{{2, 3}, {0, 2}}, nil, 1, new(PatchScratch)); err == nil {
		t.Fatal("unsorted adds did not fail")
	}
}

// TestApplyDeltaChainByteIdentical: a chain of incremental patches must stay
// byte-identical — binary encoding included — to both the retained
// full-rebuild path and a mutate-and-freeze of the same graph, at every step
// and at multiple worker counts. This is the determinism property epoch
// rotation leans on: a patched CSR is indistinguishable from a from-scratch
// freeze, so snapshots, fingerprints and served pages cannot diverge no
// matter how many deltas were applied incrementally.
func TestApplyDeltaChainByteIdentical(t *testing.T) {
	const n = 300
	for _, workers := range []int{1, 4} {
		g := randomGraph(t, n, 1500, 23)
		cur := g.Freeze()
		rng := rand.New(rand.NewSource(int64(workers)))

		for step := 0; step < 6; step++ {
			var removes []Edge
			for u := 0; u < n; u++ {
				for _, v := range cur.row(UserID(u)) {
					if v > UserID(u) && rng.Float64() < 0.15 {
						removes = append(removes, Edge{UserID(u), v})
					}
				}
			}
			var adds []Edge
			for len(adds) < 60 {
				a, b := UserID(rng.Intn(n)), UserID(rng.Intn(n))
				if a == b || cur.AreFriends(a, b) {
					continue
				}
				adds = append(adds, Edge{a, b})
			}
			adds = NormalizeEdges(adds)
			removes = NormalizeEdges(removes)
			// NormalizeEdges dedups but two draws can still collide with an
			// earlier add of the same pair after AreFriends was checked; the
			// dedup above handles it. Removes come from distinct row slots.

			next, st, err := ApplyDelta(cur, adds, removes, workers, new(PatchScratch))
			if err != nil {
				t.Fatalf("workers=%d step=%d: %v", workers, step, err)
			}
			if err := next.CheckInvariants(); err != nil {
				t.Fatalf("workers=%d step=%d: %v", workers, step, err)
			}
			if st.DirtyRows == 0 {
				t.Fatalf("workers=%d step=%d: no dirty rows for a non-empty delta", workers, step)
			}

			full, err := ApplyDeltaRebuild(cur, adds, removes, workers)
			if err != nil {
				t.Fatalf("workers=%d step=%d: rebuild: %v", workers, step, err)
			}
			for _, e := range removes {
				g.RemoveFriendship(e.A, e.B)
			}
			for _, e := range adds {
				if err := g.AddFriendship(e.A, e.B); err != nil {
					t.Fatal(err)
				}
			}
			frozen := g.Freeze()

			bNext := next.AppendBinary(nil)
			if !bytes.Equal(bNext, full.AppendBinary(nil)) {
				t.Fatalf("workers=%d step=%d: incremental patch binary diverges from full rebuild", workers, step)
			}
			if !bytes.Equal(bNext, frozen.AppendBinary(nil)) {
				t.Fatalf("workers=%d step=%d: incremental patch binary diverges from mutate-and-freeze", workers, step)
			}
			cur = next
		}
	}
}

// randomDelta draws a normalized delta against f: every edge removed with
// probability pRemove, and up to nAdds new edges between distinct users.
// Every ID of f must be present.
func randomDelta(rng *rand.Rand, f *Frozen, pRemove float64, nAdds int) (adds, removes []Edge) {
	n := f.NumIDs()
	for u := 0; u < n; u++ {
		for _, v := range f.row(UserID(u)) {
			if v > UserID(u) && rng.Float64() < pRemove {
				removes = append(removes, Edge{UserID(u), v})
			}
		}
	}
	for len(adds) < nAdds {
		a, b := UserID(rng.Intn(n)), UserID(rng.Intn(n))
		if a != b && !f.AreFriends(a, b) {
			adds = append(adds, Edge{a, b})
		}
	}
	return NormalizeEdges(adds), NormalizeEdges(removes)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestApplyDeltaReuse covers the lifetime of a snapshot's arrays: a patch
// writes into the arrays of an earlier input only once that input was
// retained and every hold on it was released, overwrites every entry, and
// leaves the old snapshot's row accessors panicking.
func TestApplyDeltaReuse(t *testing.T) {
	// A retain/release chain, each snapshot held from the step that makes
	// it until the step that replaces it, as a World holds its graph.
	// Before each patch every array the patch may reuse is filled with a
	// sentinel, so an entry the patch did not overwrite would show in the
	// byte comparison with a FrozenBuilder rebuild. At 3,000 IDs the rows
	// pass parallelRows, so four workers really split the row pass.
	t.Run("chain", func(t *testing.T) {
		const steps = 7
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(41 + workers)))
			cur := randomGraph(t, 3000, 12000, 43).Freeze()
			cur.Retain()
			var s PatchScratch
			reused := 0
			for step := 0; step < steps; step++ {
				// The chain shrinks, so every spare fits the next snapshot,
				// until the last step doubles the graph past every spare's
				// capacity.
				nAdds := 200
				if step == steps-1 {
					nAdds = cur.NumEdges()
				}
				adds, removes := randomDelta(rng, cur, 0.08, nAdds)
				released := map[*UserID]bool{}
				for _, c := range s.spare {
					if c.retained.Load() && c.holds.Load() == 0 {
						for i := range c.offsets {
							c.offsets[i] = -1 << 40
						}
						for i := range c.adj {
							c.adj[i] = -7
						}
						released[unsafe.SliceData(c.adj)] = true
					}
				}
				want, err := ApplyDeltaRebuild(cur, adds, removes, 1)
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := ApplyDelta(cur, adds, removes, workers, &s)
				if err != nil {
					t.Fatalf("workers=%d step=%d: %v", workers, step, err)
				}
				reuse := released[unsafe.SliceData(next.adj)]
				if err := next.CheckInvariants(); err != nil {
					t.Fatalf("workers=%d step=%d (reused %v): %v", workers, step, reuse, err)
				}
				if !bytes.Equal(next.AppendBinary(nil), want.AppendBinary(nil)) {
					t.Fatalf("workers=%d step=%d (reused %v): patch diverges from a FrozenBuilder rebuild", workers, step, reuse)
				}
				if reuse {
					reused++
					if step == steps-1 {
						t.Fatalf("workers=%d: a spare too small for the grown graph was reused", workers)
					}
				}
				next.Retain()
				cur.Release()
				cur = next
			}
			// Step 0 has no spare and the last step outgrows them; every
			// step in between reuses the snapshot released the step before.
			if reused != steps-2 {
				t.Fatalf("workers=%d: %d of %d steps reused a released snapshot, want %d", workers, reused, steps, steps-2)
			}
		}
	})

	// A snapshot a clone still holds is not reused after the world lets
	// go; once the clone releases it, the next patch reuses it, and the
	// reused snapshot's accessors panic instead of reading the new rows.
	t.Run("held", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		var s PatchScratch
		step := func(cur *Frozen) *Frozen {
			t.Helper()
			adds, removes := randomDelta(rng, cur, 0.1, 10)
			next, _, err := ApplyDelta(cur, adds, removes, 1, &s)
			if err != nil {
				t.Fatal(err)
			}
			next.Retain()
			cur.Release()
			return next
		}
		f0 := randomGraph(t, 200, 800, 53).Freeze()
		f0.Retain() // the world's hold, dropped by the first step
		f0.Retain() // a clone's hold
		image, adj0 := f0.AppendBinary(nil), unsafe.SliceData(f0.adj)
		f2 := step(step(f0))
		if unsafe.SliceData(f2.adj) == adj0 || !bytes.Equal(f0.AppendBinary(nil), image) {
			t.Fatal("patch reused the arrays of a snapshot a clone still holds")
		}
		f0.Release()
		if f3 := step(f2); unsafe.SliceData(f3.adj) != adj0 {
			t.Fatal("patch did not reuse the oldest snapshot whose holds were all released")
		}
		mustPanic(t, "Friends on a reused snapshot", func() { f0.Friends(1) })
		mustPanic(t, "Degree on a reused snapshot", func() { f0.Degree(1) })
		mustPanic(t, "ForEachFriend on a reused snapshot", func() { f0.ForEachFriend(1, func(UserID) {}) })
		mustPanic(t, "AreFriends on a reused snapshot", func() { f0.AreFriends(1, 2) })
		mustPanic(t, "MutualFriends on a reused snapshot", func() { f0.MutualFriends(1, 2) })
		mustPanic(t, "Jaccard on a reused snapshot", func() { f0.Jaccard(1, 2) })
		mustPanic(t, "AppendBinary of a reused snapshot", func() { f0.AppendBinary(nil) })
		mustPanic(t, "Retain of a reused snapshot", f0.Retain)
		mustPanic(t, "Release of a reused snapshot", f0.Release)
	})

	// A chain nobody retains never reuses: its holders are unknown, so
	// every earlier snapshot stays readable as it was.
	t.Run("never retained", func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		cur := randomGraph(t, 200, 800, 61).Freeze()
		var s PatchScratch
		var chain []*Frozen
		var images [][]byte
		for step := 0; step < 4; step++ {
			chain = append(chain, cur)
			images = append(images, cur.AppendBinary(nil))
			adds, removes := randomDelta(rng, cur, 0.1, 10)
			next, _, err := ApplyDelta(cur, adds, removes, 1, &s)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range chain {
				if unsafe.SliceData(next.adj) == unsafe.SliceData(f.adj) {
					t.Fatalf("step %d reused snapshot %d, which nobody retained", step, i)
				}
			}
			cur = next
		}
		for i, f := range chain {
			if !bytes.Equal(f.AppendBinary(nil), images[i]) {
				t.Fatalf("snapshot %d of an unretained chain changed", i)
			}
		}
	})

	t.Run("release below zero", func(t *testing.T) {
		f := randomGraph(t, 20, 40, 67).Freeze()
		mustPanic(t, "Release of a never-retained snapshot", f.Release)
		g := randomGraph(t, 20, 40, 71).Freeze()
		g.Retain()
		g.Release()
		mustPanic(t, "Release past the last hold", g.Release)
	})
}

// ApplyDeltaRebuild is the full-rebuild reference for ApplyDelta: the
// surviving edges of f are streamed into a FrozenBuilder alongside the
// additions, costing two linear passes over the whole edge set plus a
// per-row sort. Same contract as ApplyDelta, checked the plain way: both
// lists in range and normalized, add endpoints present, no edge in both
// lists, every removal found while the edges are streamed, and no
// addition already kept (Build's duplicate check).
func ApplyDeltaRebuild(f *Frozen, adds, removes []Edge, sortWorkers int) (*Frozen, error) {
	n := len(f.present)
	for _, list := range [][]Edge{adds, removes} {
		for i, e := range list {
			if e.A < 0 || e.B < 0 || int(e.A) >= n || int(e.B) >= n {
				return nil, fmt.Errorf("socialgraph: delta edge (%d,%d) outside the ID space", e.A, e.B)
			}
			if e.A >= e.B || (i > 0 && compareEdges(list[i-1], e) >= 0) {
				return nil, fmt.Errorf("socialgraph: delta not normalized at (%d,%d)", e.A, e.B)
			}
		}
	}
	for _, e := range adds {
		if !f.present[e.A] || !f.present[e.B] {
			return nil, fmt.Errorf("socialgraph: delta adds edge (%d,%d) with absent endpoint", e.A, e.B)
		}
		if _, found := slices.BinarySearchFunc(removes, e, compareEdges); found {
			return nil, fmt.Errorf("socialgraph: delta removes and re-adds edge (%d,%d)", e.A, e.B)
		}
	}
	b := NewFrozenBuilder(n)
	for u := 0; u < n; u++ {
		if f.present[u] {
			if err := b.AddUser(UserID(u)); err != nil {
				return nil, err
			}
		}
	}
	// Surviving edges, in one pass. Walking users ascending and each sorted
	// row ascending (keeping only u < v) visits every undirected edge
	// exactly once in global (A, B) order — the same order removes is
	// sorted in, so a single merge pointer strikes the removals.
	kept := make([]Edge, 0, f.edges-len(removes)+1)
	ri := 0
	for u := 0; u < n; u++ {
		for _, v := range f.row(UserID(u)) {
			if v <= UserID(u) {
				continue
			}
			e := Edge{UserID(u), v}
			for ri < len(removes) && compareEdges(removes[ri], e) < 0 {
				return nil, fmt.Errorf("socialgraph: delta removes edge (%d,%d) not in snapshot", removes[ri].A, removes[ri].B)
			}
			if ri < len(removes) && removes[ri] == e {
				ri++
				continue
			}
			kept = append(kept, e)
		}
	}
	if ri != len(removes) {
		return nil, fmt.Errorf("socialgraph: delta removes edge (%d,%d) not in snapshot", removes[ri].A, removes[ri].B)
	}
	if err := b.AddShard(kept); err != nil {
		return nil, err
	}
	if err := b.AddShard(adds); err != nil {
		return nil, err
	}
	// Build also rejects any add that duplicates a kept edge (the
	// cross-shard duplicate check), enforcing the adds-are-new contract.
	return b.Build(sortWorkers)
}

// Delta kinds FuzzApplyDeltaMatchesRebuild draws: a valid delta, or one
// broken in one of the ways the ApplyDelta contract forbids.
const (
	deltaValid = iota
	deltaAbsentRemoval
	deltaReAddKept
	deltaReAddRemoved
	deltaUnnormalized
	deltaOutOfRange
	deltaKinds
)

// FuzzApplyDeltaMatchesRebuild holds the one-pass patch to the full
// rebuild on random graphs and random normalized deltas, each valid or
// broken in one way: a removal of an absent edge, a re-add of a kept
// edge, a re-add of an edge the delta removes, an unnormalized list, or
// an endpoint outside the ID space. At one and at four workers, into
// fresh arrays and into a released spare's, ApplyDelta must accept
// exactly what ApplyDeltaRebuild accepts; an accepted patch must equal
// the rebuild byte for byte, pass CheckInvariants, count as dirty exactly
// the rows an edit touches, and write into the spare when given one.
// Graphs of 1,024 IDs or more split the row pass across the four workers.
func FuzzApplyDeltaMatchesRebuild(f *testing.F) {
	for kind := range uint8(deltaKinds) {
		f.Add(int64(kind), uint16(200), uint16(800), uint8(50), uint16(40), kind)
		f.Add(int64(kind)+100, uint16(1500), uint16(6000), uint8(20), uint16(300), kind)
	}
	f.Add(int64(7), uint16(0), uint16(0), uint8(0), uint16(0), uint8(deltaValid))      // two users, no edges
	f.Add(int64(8), uint16(30), uint16(400), uint8(255), uint16(0), uint8(deltaValid)) // every edge removed
	f.Add(int64(9), uint16(1100), uint16(0), uint8(0), uint16(500), uint8(deltaValid)) // adds only
	f.Fuzz(func(t *testing.T, seed int64, users, edges uint16, remove uint8, nAdds uint16, kind uint8) {
		n := 2 + int(users)%3000
		cur := randomGraph(t, n, int(edges)%(4*n), seed).Freeze()
		rng := rand.New(rand.NewSource(seed))
		adds, removes := fuzzDelta(rng, cur, float64(remove)/255, int(nAdds)%(n+1), kind%deltaKinds)
		want, wantErr := ApplyDeltaRebuild(cur, adds, removes, 1)
		var image []byte
		if wantErr == nil {
			image = want.AppendBinary(nil)
		}
		for _, workers := range []int{1, 4} {
			for _, withSpare := range []bool{false, true} {
				var s PatchScratch
				var spareAdj *UserID
				if withSpare {
					spare := releasedSpare(cur, 2*len(adds))
					s.spare = []*Frozen{spare}
					spareAdj = unsafe.SliceData(spare.adj)
				}
				next, st, err := ApplyDelta(cur, adds, removes, workers, &s)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("workers=%d spare=%v kind=%d: ApplyDelta error %v, rebuild error %v", workers, withSpare, kind%deltaKinds, err, wantErr)
				}
				if err != nil {
					continue
				}
				if err := next.CheckInvariants(); err != nil {
					t.Fatalf("workers=%d spare=%v: %v", workers, withSpare, err)
				}
				if !bytes.Equal(next.AppendBinary(nil), image) {
					t.Fatalf("workers=%d spare=%v: patch diverges from the rebuild", workers, withSpare)
				}
				if want := editedRows(adds, removes); st.DirtyRows != want {
					t.Fatalf("workers=%d spare=%v: %d dirty rows, %d rows hold an edit", workers, withSpare, st.DirtyRows, want)
				}
				if withSpare && unsafe.SliceData(next.adj) != spareAdj {
					t.Fatalf("workers=%d: patch did not write into the released spare", workers)
				}
			}
		}
	})
}

// fuzzDelta draws a normalized delta against f — each edge removed with
// probability pRemove, up to nAdds new edges between present users — and
// breaks it as kind says, when f has what that needs.
func fuzzDelta(rng *rand.Rand, f *Frozen, pRemove float64, nAdds int, kind uint8) (adds, removes []Edge) {
	n := f.NumIDs()
	var kept []Edge
	for u := 0; u < n; u++ {
		for _, v := range f.row(UserID(u)) {
			if v <= UserID(u) {
				continue
			}
			if rng.Float64() < pRemove {
				removes = append(removes, Edge{UserID(u), v})
			} else {
				kept = append(kept, Edge{UserID(u), v})
			}
		}
	}
	absent := func() (Edge, bool) {
		for try := 0; try < 64; try++ {
			e := normEdge(UserID(rng.Intn(n)), UserID(rng.Intn(n)))
			if e.A != e.B && !f.AreFriends(e.A, e.B) {
				return e, true
			}
		}
		return Edge{}, false
	}
	for i := 0; i < nAdds; i++ {
		if e, ok := absent(); ok {
			adds = append(adds, e)
		}
	}
	adds = NormalizeEdges(adds)
	insert := func(list []Edge, e Edge) []Edge {
		i, found := slices.BinarySearchFunc(list, e, compareEdges)
		if found {
			return list
		}
		return slices.Insert(list, i, e)
	}
	switch kind {
	case deltaAbsentRemoval:
		if e, ok := absent(); ok {
			removes = insert(removes, e)
		}
	case deltaReAddKept:
		if len(kept) > 0 {
			adds = insert(adds, kept[rng.Intn(len(kept))])
		}
	case deltaReAddRemoved:
		if len(removes) > 0 {
			adds = insert(adds, removes[rng.Intn(len(removes))])
		}
	case deltaUnnormalized:
		list := &adds
		if len(adds) == 0 || (len(removes) > 0 && rng.Intn(2) == 0) {
			list = &removes
		}
		if l := *list; len(l) > 0 {
			i := rng.Intn(len(l))
			switch {
			case rng.Intn(3) == 0: // reversed endpoints
				l[i].A, l[i].B = l[i].B, l[i].A
			case rng.Intn(2) == 0: // a duplicate
				*list = slices.Insert(l, i, l[i])
			case i > 0: // out of order
				l[i-1], l[i] = l[i], l[i-1]
			default:
				*list = append(l, l[0])
			}
		}
	case deltaOutOfRange:
		e := Edge{UserID(rng.Intn(n)), UserID(n + rng.Intn(3))}
		if rng.Intn(2) == 0 {
			e = Edge{UserID(-1 - rng.Intn(3)), UserID(rng.Intn(n))}
		}
		if rng.Intn(2) == 0 {
			adds = insert(adds, e)
		} else {
			removes = insert(removes, e)
		}
	}
	return adds, removes
}

func normEdge(a, b UserID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// releasedSpare returns a snapshot a patch of f may write into: retained,
// every hold released, with arrays large enough for f grown by grow
// entries and filled with sentinels, so an entry the patch does not write
// shows in the comparison with the rebuild.
func releasedSpare(f *Frozen, grow int) *Frozen {
	c := &Frozen{
		offsets: make([]int64, len(f.offsets)),
		adj:     make([]UserID, len(f.adj)+grow),
		present: f.present,
	}
	for i := range c.offsets {
		c.offsets[i] = -1 << 40
	}
	for i := range c.adj {
		c.adj[i] = -7
	}
	c.Retain()
	c.Release()
	return c
}

// editedRows counts the rows an edge of adds or removes touches.
func editedRows(adds, removes []Edge) int {
	rows := map[UserID]bool{}
	for _, list := range [][]Edge{adds, removes} {
		for _, e := range list {
			rows[e.A], rows[e.B] = true, true
		}
	}
	return len(rows)
}
