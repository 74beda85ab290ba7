package socialgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Edge is one undirected friendship, normalized so A < B. World generators
// and snapshot readers emit edges in this form; a FrozenBuilder assembles
// them into a Frozen.
type Edge struct {
	A, B UserID
}

// compareEdges orders edges by (A, B): normalized order.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// NormalizeEdges sorts the slice in (A, B) order and removes duplicates and
// self-loops in place, returning the compacted slice. Shards call this on
// their local output so FrozenBuilder can assume each input slice is sorted
// and internally duplicate-free.
func NormalizeEdges(edges []Edge) []Edge {
	for i := range edges {
		if edges[i].A > edges[i].B {
			edges[i].A, edges[i].B = edges[i].B, edges[i].A
		}
	}
	slices.SortFunc(edges, compareEdges)
	out := edges[:0]
	for _, e := range edges {
		if e.A == e.B {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == e {
			continue
		}
		out = append(out, e)
	}
	return out
}

// MergeEdges appends the union of two normalized edge lists to dst and
// returns it, normalized: one linear merge, with an edge found in both
// lists written once. dst must not share memory with a or b.
func MergeEdges(dst, a, b []Edge) []Edge {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := compareEdges(a[i], b[j]); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// FrozenBuilder assembles a Frozen directly from pre-sorted shard output:
// a first pass counts per-user degrees, a second pass fills the CSR arrays,
// then each row is sorted. No intermediate adjacency structure exists at
// any point, so building a multi-million-node snapshot costs two linear
// passes over the edge lists plus a per-row sort.
//
// The builder is deterministic: identical (numIDs, present set, shard lists
// in identical order) always produce byte-identical CSR arrays.
type FrozenBuilder struct {
	numIDs  int
	present []bool
	shards  [][]Edge
	edges   int
}

// NewFrozenBuilder starts a builder for user IDs in [0, numIDs).
func NewFrozenBuilder(numIDs int) *FrozenBuilder {
	return &FrozenBuilder{
		numIDs:  numIDs,
		present: make([]bool, numIDs),
	}
}

// AddUser marks u as existing (possibly with zero friends).
func (b *FrozenBuilder) AddUser(u UserID) error {
	if u < 0 || int(u) >= b.numIDs {
		return fmt.Errorf("socialgraph: user %d outside builder range [0,%d)", u, b.numIDs)
	}
	b.present[u] = true
	return nil
}

// AddShard appends one shard's edge list. The slice must already be
// normalized (sorted, deduplicated, A < B — see NormalizeEdges); the builder
// retains it until Build, so the caller must not mutate it afterwards.
// Shards must be added in a deterministic order: the fill order (before the
// final row sort) follows shard order.
func (b *FrozenBuilder) AddShard(edges []Edge) error {
	for i, e := range edges {
		if e.A < 0 || int(e.B) >= b.numIDs {
			return fmt.Errorf("socialgraph: edge (%d,%d) outside builder range [0,%d)", e.A, e.B, b.numIDs)
		}
		if e.A >= e.B {
			return fmt.Errorf("socialgraph: shard edge %d (%d,%d) not normalized", i, e.A, e.B)
		}
		b.present[e.A] = true
		b.present[e.B] = true
	}
	b.shards = append(b.shards, edges)
	b.edges += len(edges)
	return nil
}

// Build assembles the Frozen. Duplicate edges across shards are rejected
// (shard partitioning must make shard outputs pairwise disjoint; duplicates
// would corrupt the pre-counted degree arrays). sortWorkers > 1 parallelizes
// the final per-row sort across that many goroutines; the result is
// identical at any worker count because rows are sorted independently.
func (b *FrozenBuilder) Build(sortWorkers int) (*Frozen, error) {
	n := b.numIDs
	f := &Frozen{
		offsets: make([]int64, n+1),
		present: b.present,
		edges:   b.edges,
	}
	for _, u := range b.present {
		if u {
			f.users++
		}
	}
	// Pass 1: degree counts into offsets[u+1].
	for _, shard := range b.shards {
		for _, e := range shard {
			f.offsets[e.A+1]++
			f.offsets[e.B+1]++
		}
	}
	for i := 0; i < n; i++ {
		f.offsets[i+1] += f.offsets[i]
	}
	// Pass 2: fill. fill[u] tracks the next free slot in u's row.
	f.adj = make([]UserID, f.offsets[n])
	fill := make([]int64, n)
	for _, shard := range b.shards {
		for _, e := range shard {
			f.adj[f.offsets[e.A]+fill[e.A]] = e.B
			fill[e.A]++
			f.adj[f.offsets[e.B]+fill[e.B]] = e.A
			fill[e.B]++
		}
	}
	// Sort each row ascending; rows are independent, so this parallelizes
	// without affecting the result.
	sortRows(f, sortWorkers)
	// Rows came from per-shard-deduplicated lists; a duplicate surviving to
	// here means two shards emitted the same pair, which breaks the degree
	// pre-count contract. Detect it rather than serve a corrupt snapshot.
	for u := 0; u < n; u++ {
		row := f.adj[f.offsets[u]:f.offsets[u+1]]
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("socialgraph: duplicate edge (%d,%d) across shards", u, row[i])
			}
		}
	}
	return f, nil
}

// sortRows sorts every adjacency row ascending, splitting the ID space
// across workers goroutines.
func sortRows(f *Frozen, workers int) {
	n := len(f.present)
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || n < 1024 {
		for u := 0; u < n; u++ {
			sortRow(f.adj[f.offsets[u]:f.offsets[u+1]])
		}
		return
	}
	chunk := (n + workers - 1) / workers
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			for u := lo; u < hi; u++ {
				sortRow(f.adj[f.offsets[u]:f.offsets[u+1]])
			}
			done <- struct{}{}
		}(lo, hi)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

func sortRow(row []UserID) {
	if len(row) > 1 {
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
}

// Equal reports whether two snapshots are structurally identical: same
// present set, same ID space, same adjacency in the same (ascending) order.
func (f *Frozen) Equal(o *Frozen) bool {
	if f.users != o.users || f.edges != o.edges || len(f.present) != len(o.present) {
		return false
	}
	for i := range f.present {
		if f.present[i] != o.present[i] {
			return false
		}
	}
	if len(f.offsets) != len(o.offsets) || len(f.adj) != len(o.adj) {
		return false
	}
	for i := range f.offsets {
		if f.offsets[i] != o.offsets[i] {
			return false
		}
	}
	for i := range f.adj {
		if f.adj[i] != o.adj[i] {
			return false
		}
	}
	return true
}

// CheckInvariants verifies the snapshot's structural invariants: monotone
// offsets, rows sorted strictly ascending (no duplicates, no self-loops),
// symmetry, edge-count consistency, and no adjacency on absent users.
func (f *Frozen) CheckInvariants() error {
	n := len(f.present)
	if len(f.offsets) != n+1 {
		return fmt.Errorf("socialgraph: frozen offsets length %d, want %d", len(f.offsets), n+1)
	}
	if f.offsets[0] != 0 || f.offsets[n] != int64(len(f.adj)) {
		return fmt.Errorf("socialgraph: frozen offsets span [%d,%d], adj length %d", f.offsets[0], f.offsets[n], len(f.adj))
	}
	users := 0
	for u := 0; u < n; u++ {
		if f.offsets[u+1] < f.offsets[u] {
			return fmt.Errorf("socialgraph: frozen offsets decrease at %d", u)
		}
		row := f.adj[f.offsets[u]:f.offsets[u+1]]
		if len(row) > 0 && !f.present[u] {
			return fmt.Errorf("socialgraph: absent user %d has %d friends", u, len(row))
		}
		if f.present[u] {
			users++
		}
		for i, v := range row {
			if int(v) < 0 || int(v) >= n {
				return fmt.Errorf("socialgraph: frozen edge %d->%d outside ID space", u, v)
			}
			if UserID(u) == v {
				return fmt.Errorf("socialgraph: frozen self-loop at %d", u)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("socialgraph: frozen row %d not strictly ascending at %d", u, i)
			}
		}
	}
	if err := f.checkSymmetric(); err != nil {
		return err
	}
	if users != f.users {
		return fmt.Errorf("socialgraph: frozen user count %d, present %d", f.users, users)
	}
	if int64(2*f.edges) != int64(len(f.adj)) {
		return fmt.Errorf("socialgraph: frozen edge count %d inconsistent with adjacency size %d", f.edges, len(f.adj))
	}
	return nil
}

// checkSymmetric proves that every entry u->v has its reverse v->u in one
// merge pass over the rows, O(n+E), instead of one binary search per entry.
// It requires offsets in range and every row strictly ascending, self-loop
// free and inside the ID space, which CheckInvariants establishes first and
// DecodeFrozen as it reads each row.
//
// Rows are visited in ascending u, so the entries u->v with u < v reach row
// v in ascending u. In a symmetric graph they are exactly row v's entries
// below v, in the same order: next[v] walks that prefix, and each forward
// entry must find itself there. When row v's own turn comes, every u < v has
// been visited, so an unmatched entry left in the prefix has no reverse.
func (f *Frozen) checkSymmetric() error {
	n := len(f.present)
	next := append([]int64(nil), f.offsets[:n]...)
	for u := 0; u < n; u++ {
		end := f.offsets[u+1]
		if i := next[u]; i < end && int(f.adj[i]) < u {
			return fmt.Errorf("socialgraph: asymmetric frozen edge %d->%d", u, f.adj[i])
		}
		for _, v := range f.adj[next[u]:end] {
			i := next[v]
			if i == f.offsets[v+1] || f.adj[i] > UserID(u) {
				return fmt.Errorf("socialgraph: asymmetric frozen edge %d->%d", u, v)
			}
			if f.adj[i] < UserID(u) { // row adj[i] came before u and lacks v
				return fmt.Errorf("socialgraph: asymmetric frozen edge %d->%d", v, f.adj[i])
			}
			next[v]++
		}
	}
	return nil
}
