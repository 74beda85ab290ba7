package socialgraph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// PatchStats reports where an incremental ApplyDelta spent its time, so the
// rotation benchmarks can break epoch advance into phases. Copy is the
// clean-span memmove phase (rows whose edge set did not change, copied
// into the new adjacency by value); Merge is the dirty-row phase (rows
// re-emitted by a linear 3-way merge — the incremental analog of the full
// rebuild's per-row sort); Prep covers validation, patch-list construction
// and finding the new snapshot's arrays.
type PatchStats struct {
	DirtyRows int // rows whose edge set changed in this delta
	Spans     int // contiguous clean spans copied wholesale
	Prep      time.Duration
	Copy      time.Duration
	Merge     time.Duration
}

// maxSpares bounds the earlier snapshots a PatchScratch keeps for reuse.
const maxSpares = 2

// PatchScratch is the reusable working memory of an incremental patch: the
// directed patch lists, the dirty-row set with its per-row subrange tables,
// the counting array behind the scatter sort, and up to two earlier input
// snapshots whose arrays a later patch may write into. At metro scale the
// working lists come to ~90MB per patch, and the adjacency each patch
// returns to ~31MB. Reusing one PatchScratch across a rotation run keeps
// both out of the allocator: once an earlier input has been retained and
// every hold on it released (see Frozen), the next patch writes its
// snapshot into that input's arrays. The zero value is ready to use. A
// PatchScratch must not be shared by concurrent patches; the returned
// snapshot never aliases it.
type PatchScratch struct {
	pos          []int32   // counting/offset array for the scatter, len n
	dadds, drems []Edge    // directed patch lists, sorted by (row, friend)
	dirty        []UserID  // sorted union of rows touched by the patch
	addLo, addHi []int32   // dirty[i]'s subrange of dadds
	remLo, remHi []int32   // dirty[i]'s subrange of drems
	spare        []*Frozen // earlier inputs, oldest first, at most maxSpares
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
// delta, not the snapshot: only rows whose edge sets changed are re-emitted
// (each by a linear 3-way merge of the old row, the sorted additions and
// the sorted removals), and every maximal run of unchanged rows between two
// dirty rows is copied with a single copy() call. No intermediate edge list
// is materialized, no row is ever re-sorted, and the result is
// byte-identical to building the patched edge set from scratch with a
// FrozenBuilder.
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
// sortWorkers parallelizes the span-copy and row-merge phases; the result
// is identical at any worker count because rows are independent and every
// write lands at a precomputed offset. s is the patch's working memory;
// rotation loops keep one across steps.
func ApplyDelta(f *Frozen, adds, removes []Edge, sortWorkers int, s *PatchScratch) (*Frozen, PatchStats, error) {
	var st PatchStats
	prep := time.Now()
	n := len(f.present)
	if err := validateDelta(f, adds, removes); err != nil {
		return nil, st, err
	}

	// Directed patch lists: each undirected edge touches two rows. Sorted by
	// (row, friend) so each dirty row's additions and removals are contiguous
	// ascending runs — exactly what the per-row merge consumes.
	s.pos = growInt32(s.pos, n)
	s.dadds = directEdgesInto(growEdges(s.dadds, 2*len(adds)), adds, s.pos)
	s.drems = directEdgesInto(growEdges(s.drems, 2*len(removes)), removes, s.pos)
	dadds, drems := s.dadds, s.drems

	next := &Frozen{
		present: f.present,
		users:   f.users,
		edges:   f.edges + len(adds) - len(removes),
	}
	next.offsets, next.adj = s.arrays(f, n+1, len(f.adj)+2*(len(adds)-len(removes)))
	// One fused O(n + patch) pass over the rows: the new offsets (a running
	// shift accumulates each row's degree delta; clean rows keep their old
	// degree), the sorted dirty-row set, and each dirty row's subranges of
	// both patch lists — so the merge phase partitions across workers
	// without ever re-scanning the patch lists.
	s.dirty = s.dirty[:0]
	s.addLo, s.addHi = s.addLo[:0], s.addHi[:0]
	s.remLo, s.remHi = s.remLo[:0], s.remHi[:0]
	ai, ri := 0, 0
	var shift int64
	for u := 0; u < n; u++ {
		next.offsets[u] = f.offsets[u] + shift
		a0, r0 := ai, ri
		for ai < len(dadds) && int(dadds[ai].A) == u {
			ai++
			shift++
		}
		for ri < len(drems) && int(drems[ri].A) == u {
			ri++
			shift--
		}
		if ai > a0 || ri > r0 {
			if f.offsets[u+1]+shift < next.offsets[u] {
				return nil, st, fmt.Errorf("socialgraph: delta removes %d edges from row %d of degree %d", ri-r0, u, f.offsets[u+1]-f.offsets[u])
			}
			s.dirty = append(s.dirty, UserID(u))
			s.addLo = append(s.addLo, int32(a0))
			s.addHi = append(s.addHi, int32(ai))
			s.remLo = append(s.remLo, int32(r0))
			s.remHi = append(s.remHi, int32(ri))
		}
	}
	next.offsets[n] = f.offsets[n] + shift
	dirty := s.dirty
	addLo, addHi, remLo, remHi := s.addLo, s.addHi, s.remLo, s.remHi
	st.DirtyRows = len(dirty)
	st.Spans = len(dirty) + 1
	st.Prep = time.Since(prep)

	// Phase 1: clean spans. Span i is the maximal run of unchanged rows
	// before dirty[i] (after dirty[len-1] for the tail span); old and new
	// offsets differ by a constant inside a span, so one copy() moves it.
	copyStart := time.Now()
	parallelFor(len(dirty)+1, sortWorkers, func(i int) {
		lo := 0
		if i > 0 {
			lo = int(dirty[i-1]) + 1
		}
		hi := n
		if i < len(dirty) {
			hi = int(dirty[i])
		}
		if lo < hi {
			copy(next.adj[next.offsets[lo]:next.offsets[hi]], f.adj[f.offsets[lo]:f.offsets[hi]])
		}
	})
	st.Copy = time.Since(copyStart)

	// Phase 2: dirty rows. Each is rebuilt by a linear 3-way merge — old row
	// minus its removals, interleaved with its additions — which emits the
	// row already sorted ascending, so no re-sort happens anywhere.
	mergeStart := time.Now()
	var bad atomic.Int64
	bad.Store(-1)
	parallelFor(len(dirty), sortWorkers, func(i int) {
		u := dirty[i]
		old := f.adj[f.offsets[u]:f.offsets[u+1]]
		dst := next.adj[next.offsets[u]:next.offsets[u+1]]
		add := dadds[addLo[i]:addHi[i]]
		rem := drems[remLo[i]:remHi[i]]
		if !mergeRow(dst, old, add, rem) {
			bad.CompareAndSwap(-1, int64(u))
		}
	})
	st.Merge = time.Since(mergeStart)
	if u := bad.Load(); u >= 0 {
		return nil, st, fmt.Errorf("socialgraph: patch merge mismatch at row %d", u)
	}
	s.keep(f)
	return next, st, nil
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

// directEdgesInto expands undirected edges into both directed entries in
// out (len 2·|edges|, fully overwritten), sorted by (row, friend). A reused
// as the row, B as the friend — NOT normalized. pos is an n-length counting
// array whose contents are clobbered.
//
// No comparison sort runs: the input is (A,B)-sorted, so the forward
// entries {A,B} are born row-sorted, and a stable counting scatter of the
// reversed entries {B,A} by row keeps their friends ascending too. Within
// one row every reversed friend (< row, since A < B) precedes every
// forward friend (> row), so the two runs concatenate — the whole
// expansion is two linear passes plus one pass over the counting array,
// converted in place from per-row counts to running offsets.
func directEdgesInto(out []Edge, edges []Edge, pos []int32) []Edge {
	if len(edges) == 0 {
		return out[:0]
	}
	for i := range pos {
		pos[i] = 0
	}
	for _, e := range edges {
		pos[e.A]++
		pos[e.B]++
	}
	var sum int32
	for u := range pos {
		c := pos[u]
		pos[u] = sum
		sum += c
	}
	for _, e := range edges { // reversed entries first: friend < row
		out[pos[e.B]] = Edge{e.B, e.A}
		pos[e.B]++
	}
	for _, e := range edges { // forward entries after: friend > row
		out[pos[e.A]] = Edge{e.A, e.B}
		pos[e.A]++
	}
	return out
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

// parallelFor runs fn(0..n-1) across workers goroutines in contiguous
// chunks. Falls back to inline execution for small n or a single worker.
func parallelFor(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || n < 1024 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
