package socialgraph

import (
	"bytes"
	"fmt"
	"math/rand"
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

			var bNext, bFull, bFrozen bytes.Buffer
			if err := next.WriteBinary(&bNext); err != nil {
				t.Fatal(err)
			}
			if err := full.WriteBinary(&bFull); err != nil {
				t.Fatal(err)
			}
			if err := frozen.WriteBinary(&bFrozen); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bNext.Bytes(), bFull.Bytes()) {
				t.Fatalf("workers=%d step=%d: incremental patch binary diverges from full rebuild", workers, step)
			}
			if !bytes.Equal(bNext.Bytes(), bFrozen.Bytes()) {
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

func binaryImage(t *testing.T, f *Frozen) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
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
	// byte comparison with a FrozenBuilder rebuild. At 3,000 IDs the dirty
	// rows and clean spans pass parallelFor's threshold, so four workers
	// really split both phases.
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
				if !bytes.Equal(binaryImage(t, next), binaryImage(t, want)) {
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
		image, adj0 := binaryImage(t, f0), unsafe.SliceData(f0.adj)
		f2 := step(step(f0))
		if unsafe.SliceData(f2.adj) == adj0 || !bytes.Equal(binaryImage(t, f0), image) {
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
		mustPanic(t, "WriteBinary of a reused snapshot", func() { f0.WriteBinary(new(bytes.Buffer)) })
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
			images = append(images, binaryImage(t, cur))
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
			if !bytes.Equal(binaryImage(t, f), images[i]) {
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
// per-row sort. Same contract as ApplyDelta.
func ApplyDeltaRebuild(f *Frozen, adds, removes []Edge, sortWorkers int) (*Frozen, error) {
	n := len(f.present)
	b := NewFrozenBuilder(n)
	for u := 0; u < n; u++ {
		if f.present[u] {
			if err := b.AddUser(UserID(u)); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range adds {
		if e.A < 0 || int(e.B) >= n || !f.present[e.A] || !f.present[e.B] {
			return nil, fmt.Errorf("socialgraph: delta adds edge (%d,%d) with absent endpoint", e.A, e.B)
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
