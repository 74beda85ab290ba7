package socialgraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
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
	if _, _, err := ApplyDelta(f, []Edge{{3, 9}}, nil, 1, new(PatchScratch)); err == nil {
		t.Fatal("adding an edge outside the ID space did not fail")
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
