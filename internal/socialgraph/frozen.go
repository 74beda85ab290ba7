package socialgraph

import (
	"math"
	"sort"
	"sync/atomic"
)

// Frozen is the friendship graph: an immutable compressed-sparse-row (CSR)
// snapshot. Adjacency lives in one flat, ID-sorted slice per row, so the
// read plane of the platform can serve friend lookups with zero
// allocation, cache-friendly scans and no locking: a Frozen is safe for
// unlimited concurrent readers, because nothing mutates it while it is
// held (see Lifetime below).
//
// A FrozenBuilder assembles the first snapshot of a world from its edge
// lists, DecodeFrozen reloads one, and ApplyDelta derives the next
// snapshot from an edge delta.
//
// Lifetime: a holder that keeps a snapshot across evolution steps takes a
// hold with Retain and drops it with Release. Once a snapshot has been
// retained and every hold released, a later ApplyDelta on the PatchScratch
// that took it as input may write a newer snapshot into its offsets and
// adjacency arrays. It then clears the old snapshot's header, so a stale
// reader's row lookups panic instead of reading another year's rows. A
// snapshot nobody ever retained is never reused, and the present bitmap,
// shared by every snapshot of a chain, never is.
type Frozen struct {
	// offsets[u]..offsets[u+1] indexes u's row in adj. len(offsets) is
	// NumIDs+1 so the slice expression needs no bounds special-casing.
	offsets []int64
	// adj holds every directed adjacency entry (2 per friendship), each
	// row sorted ascending.
	adj []UserID
	// present[u] reports whether u exists in the graph (a user can exist
	// with no friends).
	present []bool
	users   int
	edges   int

	// holds counts Retain calls not yet matched by Release; reclaimed once
	// the arrays have been handed to a newer snapshot. retained records
	// that a hold was ever taken.
	holds    atomic.Int32
	retained atomic.Bool
}

// reclaimed is holds' value once the arrays were reused. It is far enough
// from zero that a later Retain or Release still sees a negative count.
const reclaimed = math.MinInt32 / 2

// Retain takes a hold on the snapshot: its arrays are not reused while the
// hold lasts. It panics if the arrays were already reused.
func (f *Frozen) Retain() {
	f.retained.Store(true)
	if f.holds.Add(1) <= 0 {
		panic("socialgraph: Retain of a snapshot whose arrays were reused")
	}
}

// Release drops a hold taken by Retain. After the last hold is released
// the holder must not read the snapshot again: its arrays may be reused.
// It panics when no hold is left to release.
func (f *Frozen) Release() {
	if f.holds.Add(-1) < 0 {
		panic("socialgraph: Release without a matching Retain")
	}
}

// reclaim takes the snapshot's offsets and adjacency arrays if it was
// retained and every hold has been released, clearing its header so a
// stale reader's row lookups panic. ok is false, and nothing changes,
// otherwise.
func (f *Frozen) reclaim() (offsets []int64, adj []UserID, ok bool) {
	if !f.retained.Load() || !f.holds.CompareAndSwap(0, reclaimed) {
		return nil, nil, false
	}
	offsets, adj = f.offsets, f.adj
	f.offsets, f.adj, f.users, f.edges = nil, nil, 0, 0
	return offsets, adj, true
}

// row returns u's adjacency slice, or nil for unknown IDs.
func (f *Frozen) row(u UserID) []UserID {
	if u < 0 || int(u) >= len(f.present) {
		return nil
	}
	return f.adj[f.offsets[u]:f.offsets[u+1]]
}

// HasUser reports whether u exists in the snapshot.
func (f *Frozen) HasUser(u UserID) bool {
	return u >= 0 && int(u) < len(f.present) && f.present[u]
}

// Degree returns the number of friends of u.
func (f *Frozen) Degree(u UserID) int { return len(f.row(u)) }

// NumUsers returns the number of users.
func (f *Frozen) NumUsers() int { return f.users }

// NumIDs returns the size of the snapshot's ID space (max user ID + 1).
// IDs in [0, NumIDs) may or may not be present.
func (f *Frozen) NumIDs() int { return len(f.present) }

// NumEdges returns the number of friendships.
func (f *Frozen) NumEdges() int { return f.edges }

// Friends returns u's friends in ascending ID order. The slice is a view
// into the shared snapshot — allocation-free, but the caller MUST NOT
// modify it.
func (f *Frozen) Friends(u UserID) []UserID { return f.row(u) }

// ForEachFriend calls fn for every friend of u in ascending ID order,
// without allocating.
func (f *Frozen) ForEachFriend(u UserID, fn func(UserID)) {
	for _, v := range f.row(u) {
		fn(v)
	}
}

// AreFriends reports whether a and b share an edge, by binary search over
// the shorter of the two rows.
func (f *Frozen) AreFriends(a, b UserID) bool {
	ra, rb := f.row(a), f.row(b)
	if len(ra) > len(rb) {
		ra, b = rb, a
	}
	i := sort.Search(len(ra), func(i int) bool { return ra[i] >= b })
	return i < len(ra) && ra[i] == b
}

// MutualFriends returns the number of common friends of a and b via a
// linear merge of the two sorted rows — flat-slice traversal, no hashing.
func (f *Frozen) MutualFriends(a, b UserID) int {
	ra, rb := f.row(a), f.row(b)
	n, i, j := 0, 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] < rb[j]:
			i++
		case ra[i] > rb[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Jaccard returns the Jaccard index |F(a) ∩ F(b)| / |F(a) ∪ F(b)| of the two
// users' friend sets. Section 6.1 of the paper uses this to infer hidden
// friendship links between two registered minors whose friend lists are both
// invisible to strangers. Returns 0 when both sets are empty.
func (f *Frozen) Jaccard(a, b UserID) float64 {
	inter := f.MutualFriends(a, b)
	union := f.Degree(a) + f.Degree(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Users returns all user IDs in ascending order. This allocates; iterate
// offsets directly (or use ForEachUser) on hot paths.
func (f *Frozen) Users() []UserID {
	out := make([]UserID, 0, f.users)
	for u := range f.present {
		if f.present[u] {
			out = append(out, UserID(u))
		}
	}
	return out
}

// ForEachUser calls fn for every user in ascending ID order without
// allocating.
func (f *Frozen) ForEachUser(fn func(UserID)) {
	for u := range f.present {
		if f.present[u] {
			fn(UserID(u))
		}
	}
}
