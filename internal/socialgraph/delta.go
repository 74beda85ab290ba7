package socialgraph

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// PatchStats reports where an incremental ApplyDelta spent its time, so the
// rotation benchmarks can break epoch advance into phases. Prep covers
// validation, the directed patch lists and finding the new snapshot's
// arrays; Merge covers the row pass, which writes every row of the new
// snapshot — each run of unchanged rows copied by value with one copy(),
// each changed row re-emitted by a linear 3-way merge (the incremental
// analog of the full rebuild's per-row sort). Prep + Copy + Merge is the
// whole patch.
type PatchStats struct {
	DirtyRows int // rows whose edge set changed in this delta
	Prep      time.Duration
	// Copy is zero: unchanged runs are copied inside the row pass, which
	// Merge times. Prep + Copy + Merge still sums to the whole patch.
	Copy  time.Duration
	Merge time.Duration
}

// maxSpares bounds the earlier snapshots a PatchScratch keeps for reuse.
const maxSpares = 2

// PatchScratch is the reusable working memory of an incremental patch: the
// directed patch lists, the per-row ends of their runs, and up to two
// earlier input snapshots whose arrays a later patch may write into. At
// metro scale the working lists come to ~90MB per patch, and the
// adjacency each patch returns to ~31MB. Reusing one PatchScratch across a
// rotation run keeps both out of the allocator: once an earlier input has
// been retained and every hold on it released (see Frozen), the next patch
// writes its snapshot into that input's arrays. The zero value is ready to
// use. A PatchScratch must not be shared by concurrent patches; the
// returned snapshot never aliases it.
type PatchScratch struct {
	dadds, drems   []Edge    // directed patch lists, sorted by (row, friend)
	addEnd, remEnd []int32   // row u's runs end there: dadds[addEnd[u-1]:addEnd[u]]
	spare          []*Frozen // earlier inputs, oldest first, at most maxSpares
}

// arrays returns the offsets (length n) and adjacency (length m) of the
// snapshot patched from f: the arrays of the oldest spare other than f
// that was retained and has had every hold released, or fresh ones. An
// array too small for its new length is allocated afresh. The patch
// overwrites every entry of both.
func (s *PatchScratch) arrays(f *Frozen, n, m int) ([]int64, []UserID) {
	for i, c := range s.spare {
		if c == f {
			continue
		}
		if offsets, adj, ok := c.reclaim(); ok {
			s.spare = slices.Delete(s.spare, i, i+1)
			if cap(offsets) < n {
				offsets = make([]int64, n)
			}
			if cap(adj) < m {
				adj = make([]UserID, m)
			}
			return offsets[:n], adj[:m]
		}
	}
	return make([]int64, n), make([]UserID, m)
}

// keep records the input f of a finished patch as a spare for later ones,
// dropping the oldest spare beyond maxSpares.
func (s *PatchScratch) keep(f *Frozen) {
	if slices.Contains(s.spare, f) {
		return
	}
	if len(s.spare) == maxSpares {
		s.spare = slices.Delete(s.spare, 0, 1)
	}
	s.spare = append(s.spare, f)
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growEdges(s []Edge, n int) []Edge {
	if cap(s) < n {
		return make([]Edge, n)
	}
	return s[:n]
}

// ApplyDelta builds the next CSR snapshot from f plus an edge delta, and
// reports where the patch spent its time. The cost is proportional to the
// delta plus the rows, not the edges: one pass over the rows copies every
// maximal run of unchanged rows with a single copy() and re-emits each row
// whose edge set changed by a linear 3-way merge of the old row, the
// sorted additions and the sorted removals. No intermediate edge list is
// materialized, no row is ever re-sorted, and the result is byte-identical
// to building the patched edge set from scratch with a FrozenBuilder.
//
// The new offsets and adjacency are written into the arrays of an earlier
// input of s when that snapshot was retained and every hold on it has been
// released, and are allocated otherwise; the reused snapshot's header is
// cleared (see Frozen). f becomes a spare of s once the patch succeeds.
// Callers that keep f after installing the result must hold it with
// Retain.
//
// Both slices must be normalized (see NormalizeEdges). Every edge in
// removes must exist in f; no edge in adds may exist in f (an edge removed
// by the same delta cannot be re-added — the delta is one atomic step, not
// a log). Endpoints of adds must be present users of f: a delta changes
// friendships, never the population. The present set carries over by
// reference — it is immutable and a delta never changes the population —
// so users who lose their last friendship stay present.
//
// sortWorkers splits the row pass into that many contiguous ranges of
// rows; the result is identical at any worker count because rows are
// independent and every write lands at an offset known from the per-row
// counts. s is the patch's working memory; rotation loops keep one across
// steps.
func ApplyDelta(f *Frozen, adds, removes []Edge, sortWorkers int, s *PatchScratch) (*Frozen, PatchStats, error) {
	var st PatchStats
	prep := time.Now()
	n := len(f.present)
	if err := validateDelta(f, adds, removes); err != nil {
		return nil, st, err
	}
	if err := s.direct(f, adds, removes); err != nil {
		return nil, st, err
	}
	next := &Frozen{
		present: f.present,
		users:   f.users,
		edges:   f.edges + len(adds) - len(removes),
	}
	next.offsets, next.adj = s.arrays(f, n+1, len(f.adj)+2*(len(adds)-len(removes)))
	next.offsets[n] = int64(len(next.adj))
	st.Prep = time.Since(prep)

	pass := time.Now()
	dirty, bad := s.rows(f, next, sortWorkers)
	st.Merge = time.Since(pass)
	if bad >= 0 {
		return nil, st, fmt.Errorf("socialgraph: patch merge mismatch at row %d", bad)
	}
	st.DirtyRows = dirty
	s.keep(f)
	return next, st, nil
}

// parallelRows is the fewest rows ApplyDelta splits across workers.
const parallelRows = 1024

// rows runs emitRows over every row of f, split into up to workers
// contiguous ranges, and returns the number of changed rows and the first
// row whose patch did not line up, or -1 — at any worker count the same.
func (s *PatchScratch) rows(f, next *Frozen, workers int) (dirty, bad int) {
	n := len(f.present)
	if workers <= 1 || n < parallelRows {
		return s.emitRows(f, next, 0, n)
	}
	chunk := (n + workers - 1) / workers
	dirtyAt, badAt := make([]int, workers), make([]int, workers)
	var wg sync.WaitGroup
	for i := range workers {
		lo, hi := min(i*chunk, n), min((i+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dirtyAt[i], badAt[i] = s.emitRows(f, next, lo, hi)
		}()
	}
	wg.Wait()
	bad = -1
	for i := range workers {
		dirty += dirtyAt[i]
		if bad < 0 {
			bad = badAt[i]
		}
	}
	return dirty, bad
}

// direct fills the directed patch lists with both entries of every edge
// of adds and removes, each list sorted by (row, friend), and leaves
// addEnd[u] and remEnd[u] at the end of row u's runs in them. It fails if
// a row would lose more edges than it has plus gains, before anything is
// sized by that row.
//
// No comparison sort runs. One pass counts both lists' entries per row,
// and one pass over the rows turns the counts into run starts. The input
// is (A,B)-sorted, so a stable scatter of the reversed entries {B,A} by
// row keeps their friends ascending, and the forward entries {A,B} follow
// in order. Within one row every reversed friend (< row, since A < B)
// precedes every forward friend (> row), so the two runs concatenate, and
// each scatter leaves its counter at the end of its row's run.
func (s *PatchScratch) direct(f *Frozen, adds, removes []Edge) error {
	n := len(f.present)
	s.addEnd, s.remEnd = growInt32(s.addEnd, n), growInt32(s.remEnd, n)
	addAt, remAt := s.addEnd, s.remEnd
	clear(addAt)
	clear(remAt)
	for _, e := range adds {
		addAt[e.A]++
		addAt[e.B]++
	}
	for _, e := range removes {
		remAt[e.A]++
		remAt[e.B]++
	}
	var a, r int32
	for u := range n {
		ca, cr := addAt[u], remAt[u]
		if deg := f.offsets[u+1] - f.offsets[u]; int64(cr) > deg+int64(ca) {
			return fmt.Errorf("socialgraph: delta removes %d edges from row %d of degree %d", cr, u, deg)
		}
		addAt[u], remAt[u] = a, r
		a, r = a+ca, r+cr
	}
	s.dadds = scatter(growEdges(s.dadds, 2*len(adds)), adds, addAt)
	s.drems = scatter(growEdges(s.drems, 2*len(removes)), removes, remAt)
	return nil
}

// scatter writes both directed entries of every normalized edge into out
// (len 2·|edges|, fully overwritten), sorted by (row, friend): A is the
// row, B the friend — NOT normalized. at[u] is where row u's run starts,
// and ends up where it ends.
func scatter(out, edges []Edge, at []int32) []Edge {
	for _, e := range edges { // reversed entries first: friend < row
		out[at[e.B]] = Edge{e.B, e.A}
		at[e.B]++
	}
	for _, e := range edges { // forward entries after: friend > row
		out[at[e.A]] = Edge{e.A, e.B}
		at[e.A]++
	}
	return out
}

// emitRows writes rows [lo, hi) of next, offsets included, from f and the
// directed patch lists: row u moves by the entries added minus removed in
// the rows before it, a run of unchanged rows is one copy(), and a changed
// row is merged. It returns the number of changed rows, and the first row
// whose patch does not line up with it, or -1.
func (s *PatchScratch) emitRows(f, next *Frozen, lo, hi int) (dirty, bad int) {
	var a0, r0 int32 // where row u's runs start in dadds and drems
	if lo > 0 {
		a0, r0 = s.addEnd[lo-1], s.remEnd[lo-1]
	}
	run := lo // first row of the pending run of unchanged rows
	for u := lo; u < hi; u++ {
		a1, r1 := s.addEnd[u], s.remEnd[u]
		next.offsets[u] = f.offsets[u] + int64(a0-r0)
		if a1 == a0 && r1 == r0 {
			continue
		}
		if run < u {
			copy(next.adj[next.offsets[run]:next.offsets[u]], f.adj[f.offsets[run]:f.offsets[u]])
		}
		end := f.offsets[u+1] + int64(a1-r1)
		if !mergeRow(next.adj[next.offsets[u]:end], f.adj[f.offsets[u]:f.offsets[u+1]], s.dadds[a0:a1], s.drems[r0:r1]) {
			return dirty, u
		}
		dirty++
		run, a0, r0 = u+1, a1, r1
	}
	if run < hi {
		end := f.offsets[hi] + int64(a0-r0)
		copy(next.adj[next.offsets[run]:end], f.adj[f.offsets[run]:f.offsets[hi]])
	}
	return dirty, -1
}

// validateDelta enforces the cheap half of the ApplyDelta contract in
// O(|delta|): both endpoints of every edge in range, both lists normalized
// and strictly ascending, add endpoints present, and no more removals than
// f has edges. Membership (removes exist in f, adds do not) is NOT
// probed here — per-edge binary searches over a metro-scale adjacency are
// cache-hostile and dominated the patch — it is enforced for free by the
// per-row merge, which fails loudly on any edge that does not line up.
func validateDelta(f *Frozen, adds, removes []Edge) error {
	n := len(f.present)
	inIDSpace := func(e Edge) bool {
		return e.A >= 0 && e.B >= 0 && int(e.A) < n && int(e.B) < n
	}
	for i, e := range adds {
		if !inIDSpace(e) {
			return fmt.Errorf("socialgraph: delta adds edge (%d,%d) outside the ID space", e.A, e.B)
		}
		if e.A >= e.B || (i > 0 && compareEdges(adds[i-1], e) >= 0) {
			return fmt.Errorf("socialgraph: delta adds not normalized at (%d,%d)", e.A, e.B)
		}
		if !f.present[e.A] || !f.present[e.B] {
			return fmt.Errorf("socialgraph: delta adds edge (%d,%d) with absent endpoint", e.A, e.B)
		}
	}
	for i, e := range removes {
		if !inIDSpace(e) {
			return fmt.Errorf("socialgraph: delta removes edge (%d,%d) outside the ID space", e.A, e.B)
		}
		if e.A >= e.B || (i > 0 && compareEdges(removes[i-1], e) >= 0) {
			return fmt.Errorf("socialgraph: delta removes not normalized at (%d,%d)", e.A, e.B)
		}
	}
	if len(removes) > f.edges {
		return fmt.Errorf("socialgraph: delta removes %d edges from a snapshot of %d", len(removes), f.edges)
	}
	return nil
}

// mergeRow emits old minus rem, interleaved with add, into dst. All inputs
// are sorted ascending; the output is too. Returns false if the patch does
// not line up with the row: a removal absent from the row, an addition
// already in the row (removed by the same delta or not), and either slip
// also shows up as a length mismatch. This is where the membership half of
// the ApplyDelta contract is enforced — a corrupt snapshot must never be
// served silently.
//
// The merge is event-driven rather than element-driven: a dirty row averages
// a handful of edits over dozens of entries, so the per-entry work is a bare
// copy-scan between edits instead of re-checking every entry against both
// patch lists — the add/rem bookkeeping runs once per edit, not once per
// surviving entry.
func mergeRow(dst, old []UserID, add, rem []Edge) bool {
	a, r, i, k := 0, 0, 0, 0
	for a < len(add) || r < len(rem) {
		var v UserID
		isAdd := false
		switch {
		case r == len(rem):
			v, isAdd = add[a].B, true
		case a == len(add):
			v = rem[r].B
		case add[a].B < rem[r].B:
			v, isAdd = add[a].B, true
		case add[a].B > rem[r].B:
			v = rem[r].B
		default:
			return false // re-add of an edge removed by the same delta
		}
		// Copy the untouched run up to the first old entry >= v. A tight
		// sequential scan beats binary search + memmove here: runs average a
		// handful of entries, so call overhead would dominate.
		for i < len(old) && old[i] < v {
			if k == len(dst) {
				return false
			}
			dst[k] = old[i]
			k++
			i++
		}
		if isAdd {
			if i < len(old) && old[i] == v {
				return false // re-add of an edge the row already has
			}
			if k == len(dst) {
				return false
			}
			dst[k] = v
			k++
			a++
		} else {
			if i == len(old) || old[i] != v {
				return false // removal not present in the row
			}
			i++
			r++
		}
	}
	if k+(len(old)-i) != len(dst) {
		return false
	}
	copy(dst[k:], old[i:])
	return true
}
