package socialgraph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// checkInvariantsReference is the obviously correct CheckInvariants: the
// same range, order and count checks, with symmetry proved by one binary
// search of row v for every entry u->v. The linear merge pass must agree
// with it.
func checkInvariantsReference(f *Frozen) error {
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
			// Row v itself: AreFriends searches the shorter row, which
			// assumes the symmetry being proved.
			rv := f.row(v)
			j := sort.Search(len(rv), func(j int) bool { return rv[j] >= UserID(u) })
			if j == len(rv) || rv[j] != UserID(u) {
				return fmt.Errorf("socialgraph: asymmetric frozen edge %d->%d", u, v)
			}
		}
	}
	if users != f.users {
		return fmt.Errorf("socialgraph: frozen user count %d, present %d", f.users, users)
	}
	if int64(2*f.edges) != int64(len(f.adj)) {
		return fmt.Errorf("socialgraph: frozen edge count %d inconsistent with adjacency size %d", f.edges, len(f.adj))
	}
	return nil
}

// frozenFromRows assembles a Frozen from rows as given, with no validation,
// so tests can hand CheckInvariants any adjacency they like.
func frozenFromRows(present []bool, rows [][]UserID, edges int) *Frozen {
	f := &Frozen{offsets: make([]int64, len(present)+1), present: present, edges: edges}
	for u, p := range present {
		if p {
			f.users++
		}
		f.adj = append(f.adj, rows[u]...)
		f.offsets[u+1] = int64(len(f.adj))
	}
	return f
}

// rowsOf copies f's rows so a test can edit them.
func rowsOf(f *Frozen) [][]UserID {
	rows := make([][]UserID, f.NumIDs())
	for u := range rows {
		rows[u] = append([]UserID(nil), f.row(UserID(u))...)
	}
	return rows
}

// toggle adds v to the ascending row, or removes it if present.
func toggle(row []UserID, v UserID) []UserID {
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i < len(row) && row[i] == v {
		return append(row[:i], row[i+1:]...)
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	return row
}

// TestCheckInvariantsMatchesReference: the linear symmetry check accepts and
// rejects exactly what the per-entry reference does, on random graphs, on
// single-entry corruptions of them (a dropped reverse entry, an entry
// redirected while its row stays ascending), and on graphs with random
// entries toggled, which are sometimes symmetric again.
func TestCheckInvariantsMatchesReference(t *testing.T) {
	verdict := func(name string, f *Frozen) error {
		t.Helper()
		got, want := f.CheckInvariants(), checkInvariantsReference(f)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: CheckInvariants %v, reference %v", name, got, want)
		}
		if got != nil && strings.Contains(got.Error(), "asymmetric") != strings.Contains(want.Error(), "asymmetric") {
			t.Fatalf("%s: CheckInvariants %v, reference %v", name, got, want)
		}
		return got
	}
	mustBeAsymmetric := func(name string, f *Frozen) {
		t.Helper()
		if err := verdict(name, f); err == nil || !strings.Contains(err.Error(), "asymmetric frozen edge") {
			t.Fatalf("%s: want an asymmetric-edge error, got %v", name, err)
		}
	}

	// One-way entries 0->1 and 4->1 into a longer row: an AreFriends(v, u)
	// probe per entry searches row u for v instead and accepts this graph.
	mustBeAsymmetric("one-way into a longer row", frozenFromRows(
		[]bool{true, true, true, true, true},
		[][]UserID{{1}, {2, 3}, {1}, {1}, {1}}, 3))

	rng := rand.New(rand.NewSource(13))
	accepted, rejected := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(50)
		g := New()
		var ids []UserID
		for u := 0; u < n; u++ {
			if rng.Intn(6) > 0 { // leave some IDs absent
				g.AddUser(UserID(u))
				ids = append(ids, UserID(u))
			}
		}
		for i := rng.Intn(4*n + 1); i > 0 && len(ids) > 1; i-- {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a != b {
				g.AddFriendship(a, b)
			}
		}
		f := g.Freeze()
		if err := verdict("random", f); err != nil {
			t.Fatalf("trial %d: random graph rejected: %v", trial, err)
		}
		n = f.NumIDs()
		if n == 0 {
			continue
		}
		rows := rowsOf(f)

		if len(f.adj) > 0 {
			u := UserID(rng.Intn(n))
			for len(rows[u]) == 0 {
				u = UserID(rng.Intn(n))
			}
			i := rng.Intn(len(rows[u]))
			v := rows[u][i]

			dropped := rowsOf(f)
			dropped[v] = toggle(dropped[v], u)
			mustBeAsymmetric(fmt.Sprintf("trial %d: drop %d->%d", trial, v, u), frozenFromRows(f.present, dropped, f.edges))

			lo, hi := UserID(-1), UserID(n)
			if i > 0 {
				lo = rows[u][i-1]
			}
			if i+1 < len(rows[u]) {
				hi = rows[u][i+1]
			}
			var targets []UserID
			for w := lo + 1; w < hi; w++ {
				if w != v && w != u {
					targets = append(targets, w)
				}
			}
			if len(targets) > 0 {
				redirected := rowsOf(f)
				w := targets[rng.Intn(len(targets))]
				redirected[u][i] = w
				mustBeAsymmetric(fmt.Sprintf("trial %d: redirect %d->%d to %d", trial, u, v, w), frozenFromRows(f.present, redirected, f.edges))
			}
		}

		// Toggle a few entries of present rows, each half the time together
		// with its reverse, so some results are symmetric again.
		toggled := rowsOf(f)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			a, b := UserID(rng.Intn(n)), UserID(rng.Intn(n))
			if a == b || !f.present[a] {
				continue
			}
			toggled[a] = toggle(toggled[a], b)
			if f.present[b] && rng.Intn(2) == 0 {
				toggled[b] = toggle(toggled[b], a)
			}
		}
		total := 0
		for _, r := range toggled {
			total += len(r)
		}
		if verdict(fmt.Sprintf("trial %d: toggled", trial), frozenFromRows(f.present, toggled, total/2)) == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("toggled graphs: %d accepted, %d rejected; both verdicts must occur", accepted, rejected)
	}
}
