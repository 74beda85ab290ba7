package socialgraph

import (
	"fmt"
	"sort"
)

// Graph is the map-based reference the CSR tests compare against: an
// undirected simple graph of friendships held as adjacency sets, simple
// enough to be obviously correct. The zero value is ready to use. Graph is
// not safe for concurrent mutation; concurrent readers are safe once
// construction is complete.
type Graph struct {
	adj   map[UserID]map[UserID]struct{}
	edges int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[UserID]map[UserID]struct{})}
}

// AddUser ensures u exists in the graph (possibly with no friends).
func (g *Graph) AddUser(u UserID) {
	if g.adj == nil {
		g.adj = make(map[UserID]map[UserID]struct{})
	}
	if _, ok := g.adj[u]; !ok {
		g.adj[u] = make(map[UserID]struct{})
	}
}

// HasUser reports whether u exists in the graph.
func (g *Graph) HasUser(u UserID) bool {
	_, ok := g.adj[u]
	return ok
}

// AddFriendship records a symmetric friendship between a and b. Self-loops
// are rejected with an error; duplicate edges are idempotent.
func (g *Graph) AddFriendship(a, b UserID) error {
	if a == b {
		return fmt.Errorf("socialgraph: self-friendship for user %d", a)
	}
	g.AddUser(a)
	g.AddUser(b)
	if _, dup := g.adj[a][b]; dup {
		return nil
	}
	g.adj[a][b] = struct{}{}
	g.adj[b][a] = struct{}{}
	g.edges++
	return nil
}

// RemoveFriendship deletes the edge between a and b if present.
func (g *Graph) RemoveFriendship(a, b UserID) {
	if _, ok := g.adj[a][b]; !ok {
		return
	}
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	g.edges--
}

// AreFriends reports whether a and b share an edge.
func (g *Graph) AreFriends(a, b UserID) bool {
	_, ok := g.adj[a][b]
	return ok
}

// Friends returns u's friends in ascending ID order. The slice is freshly
// allocated and safe for the caller to retain. Friend lists on the platform
// are served in a stable order, so a deterministic order here keeps
// pagination reproducible.
func (g *Graph) Friends(u UserID) []UserID {
	set := g.adj[u]
	out := make([]UserID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEachFriend calls fn for every friend of u, in unspecified order. It
// avoids the allocation of Friends for hot paths.
func (g *Graph) ForEachFriend(u UserID, fn func(UserID)) {
	for v := range g.adj[u] {
		fn(v)
	}
}

// Degree returns the number of friends of u.
func (g *Graph) Degree(u UserID) int {
	return len(g.adj[u])
}

// NumUsers returns the number of users.
func (g *Graph) NumUsers() int { return len(g.adj) }

// NumEdges returns the number of friendships.
func (g *Graph) NumEdges() int { return g.edges }

// Users returns all user IDs in ascending order.
func (g *Graph) Users() []UserID {
	out := make([]UserID, 0, len(g.adj))
	for u := range g.adj {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MutualFriends returns the number of common friends of a and b.
func (g *Graph) MutualFriends(a, b UserID) int {
	sa, sb := g.adj[a], g.adj[b]
	if len(sa) > len(sb) {
		sa, sb = sb, sa
	}
	n := 0
	for v := range sa {
		if _, ok := sb[v]; ok {
			n++
		}
	}
	return n
}

// Jaccard returns the Jaccard index |F(a) ∩ F(b)| / |F(a) ∪ F(b)| of the two
// users' friend sets. Section 6.1 of the paper uses this to infer hidden
// friendship links between two registered minors whose friend lists are both
// invisible to strangers. Returns 0 when both sets are empty.
func (g *Graph) Jaccard(a, b UserID) float64 {
	inter := g.MutualFriends(a, b)
	union := len(g.adj[a]) + len(g.adj[b]) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// CheckInvariants verifies structural invariants (symmetry, no self-loops,
// edge-count consistency); a violation indicates a construction bug.
func (g *Graph) CheckInvariants() error {
	count := 0
	for u, set := range g.adj {
		for v := range set {
			if u == v {
				return fmt.Errorf("socialgraph: self-loop at %d", u)
			}
			if _, ok := g.adj[v][u]; !ok {
				return fmt.Errorf("socialgraph: asymmetric edge %d->%d", u, v)
			}
			count++
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("socialgraph: edge count %d inconsistent with adjacency size %d", g.edges, count)
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make(map[UserID]map[UserID]struct{}, len(g.adj)), edges: g.edges}
	for u, set := range g.adj {
		ns := make(map[UserID]struct{}, len(set))
		for v := range set {
			ns[v] = struct{}{}
		}
		c.adj[u] = ns
	}
	return c
}

// Freeze snapshots the graph into CSR form over the ID space [0, max ID]
// by the most direct route: count, fill, sort each row. The graph may keep
// mutating afterwards; the snapshot is unaffected.
func (g *Graph) Freeze() *Frozen {
	maxID := -1
	for u := range g.adj {
		if int(u) > maxID {
			maxID = int(u)
		}
	}
	n := maxID + 1
	f := &Frozen{
		offsets: make([]int64, n+1),
		present: make([]bool, n),
		users:   len(g.adj),
		edges:   g.edges,
	}
	for u, set := range g.adj {
		f.present[u] = true
		f.offsets[int(u)+1] = int64(len(set))
	}
	for i := 0; i < n; i++ {
		f.offsets[i+1] += f.offsets[i]
	}
	f.adj = make([]UserID, f.offsets[n])
	fill := make([]int64, n)
	for u, set := range g.adj {
		base := f.offsets[u]
		for v := range set {
			f.adj[base+fill[u]] = v
			fill[u]++
		}
	}
	for u := 0; u < n; u++ {
		row := f.adj[f.offsets[u]:f.offsets[u+1]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	return f
}
