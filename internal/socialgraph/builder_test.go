package socialgraph

import (
	"slices"
	"strings"
	"testing"
)

// randomEdgeGraph builds a reference graph and the equivalent normalized edge
// list from a cheap deterministic sequence.
func randomEdgeGraph(t *testing.T, n, edges int, seed uint64) (*Graph, []Edge) {
	t.Helper()
	g := New()
	var list []Edge
	state := seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for u := 0; u < n; u++ {
		g.AddUser(UserID(u))
	}
	for i := 0; i < edges; i++ {
		a := UserID(next() % uint64(n))
		b := UserID(next() % uint64(n))
		if a == b {
			continue
		}
		g.AddFriendship(a, b)
		list = append(list, Edge{A: a, B: b})
	}
	return g, NormalizeEdges(list)
}

func TestNormalizeEdges(t *testing.T) {
	in := []Edge{{3, 1}, {1, 3}, {2, 2}, {0, 4}, {4, 0}, {1, 3}}
	out := NormalizeEdges(in)
	want := []Edge{{0, 4}, {1, 3}}
	if len(out) != len(want) {
		t.Fatalf("normalized to %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("normalized to %v, want %v", out, want)
		}
	}
}

// TestMergeEdges checks the linear merge against normalizing the
// concatenation, over lists that share edges, and that it appends to dst.
func TestMergeEdges(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		_, a := randomEdgeGraph(t, 30, int(seed*7), seed)
		_, b := randomEdgeGraph(t, 30, 60, seed+100)
		if seed%5 == 0 {
			b = nil
		}
		want := NormalizeEdges(append(slices.Clone(a), b...))
		head := Edge{A: -1, B: -1}
		got := MergeEdges([]Edge{head}, a, b)
		if got[0] != head || !slices.Equal(got[1:], want) {
			t.Fatalf("seed %d: merged %v, want %v after %v", seed, got, want, head)
		}
		if got := MergeEdges(nil, b, a); !slices.Equal(got, want) {
			t.Fatalf("seed %d: merge not symmetric: %v", seed, got)
		}
	}
}

func TestBuilderMatchesFreeze(t *testing.T) {
	g, edges := randomEdgeGraph(t, 500, 3000, 99)
	want := g.Freeze()

	b := NewFrozenBuilder(500)
	for u := 0; u < 500; u++ {
		if err := b.AddUser(UserID(u)); err != nil {
			t.Fatal(err)
		}
	}
	// Split the list into shards to exercise the multi-shard fill path.
	third := len(edges) / 3
	for _, shard := range [][]Edge{edges[:third], edges[third : 2*third], edges[2*third:]} {
		if err := b.AddShard(shard); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("builder output differs from Graph.Freeze")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderParallelSortIdentical(t *testing.T) {
	_, edges := randomEdgeGraph(t, 3000, 20000, 7)
	build := func(workers int) *Frozen {
		b := NewFrozenBuilder(3000)
		for u := 0; u < 3000; u++ {
			b.AddUser(UserID(u))
		}
		if err := b.AddShard(edges); err != nil {
			t.Fatal(err)
		}
		f, err := b.Build(workers)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	seq := build(1)
	for _, w := range []int{2, 4, 8} {
		if !build(w).Equal(seq) {
			t.Fatalf("sortWorkers=%d produced a different snapshot", w)
		}
	}
}

func TestBuilderRejectsCrossShardDuplicates(t *testing.T) {
	b := NewFrozenBuilder(10)
	if err := b.AddShard([]Edge{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddShard([]Edge{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("cross-shard duplicate not rejected: %v", err)
	}
}

func TestBuilderRejectsMalformedShards(t *testing.T) {
	b := NewFrozenBuilder(10)
	if err := b.AddShard([]Edge{{2, 1}}); err == nil {
		t.Fatal("unnormalized edge accepted")
	}
	if err := b.AddShard([]Edge{{3, 99}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := b.AddUser(-1); err == nil {
		t.Fatal("out-of-range user accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g, _ := randomEdgeGraph(t, 700, 4000, 21)
	f := g.Freeze()
	got, err := DecodeFrozen(f.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatal("codec round trip changed the snapshot")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	g, _ := randomEdgeGraph(t, 100, 400, 5)
	valid := g.Freeze().AppendBinary(nil)

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(valid); cut += 17 {
		if _, err := DecodeFrozen(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Flipped bytes either error or still decode into a structurally valid
	// snapshot (bit flips inside an adjacency delta can stay well-formed);
	// what they must never do is panic or violate decode-time bounds.
	for i := 0; i < len(valid); i += 13 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		got, err := DecodeFrozen(mut)
		if err == nil {
			if got == nil {
				t.Fatalf("flip at %d: nil snapshot without error", i)
			}
		}
	}
	// A huge claimed ID space must be rejected up front.
	if _, err := DecodeFrozen([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("oversized id space accepted")
	}
}
