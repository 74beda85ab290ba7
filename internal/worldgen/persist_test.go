package worldgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"hsprofiler/internal/socialgraph"
)

func TestJSONRoundTrip(t *testing.T) {
	w := tinyWorld(t, 77)
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != w.Seed || got.Now != w.Now {
		t.Fatal("metadata lost")
	}
	if len(got.People) != len(w.People) {
		t.Fatalf("people %d vs %d", len(got.People), len(w.People))
	}
	for i := range w.People {
		a, b := w.People[i], got.People[i]
		if a.DisplayName() != b.DisplayName() || a.Privacy != b.Privacy ||
			a.TrueBirth != b.TrueBirth || a.RegisteredBirth != b.RegisteredBirth ||
			a.Sociality != b.Sociality || a.Role != b.Role {
			t.Fatalf("person %d differs after round trip", i)
		}
	}
	if got.Frozen().NumEdges() != w.Frozen().NumEdges() {
		t.Fatalf("edges %d vs %d", got.Frozen().NumEdges(), w.Frozen().NumEdges())
	}
	// Spot-check adjacency equality.
	for _, u := range w.Frozen().Users() {
		if got.Frozen().Degree(u) != w.Frozen().Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

// TestReadJSONRejectsGarbage: every malformed or hostile JSON snapshot fails
// with an error wrapping ErrSnapshot — no panic, and no graph sized from an
// edge endpoint the people do not cover.
func TestReadJSONRejectsGarbage(t *testing.T) {
	for _, tc := range hostileJSON(t, tinyWorld(t, 5)) {
		got, err := ReadJSON(bytes.NewReader(tc.data))
		if err == nil || got != nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("%s: error not typed ErrSnapshot: %v", tc.name, err)
		}
	}
}

type namedInput struct {
	name string
	data []byte
}

// hostileJSON returns inputs ReadJSON must reject: two non-snapshots, then
// w's JSON snapshot with one hostile edit each.
func hostileJSON(t testing.TB, w *World) []namedInput {
	t.Helper()
	var acct, noAcct socialgraph.UserID = -1, -1
	for _, p := range w.People {
		if p.HasAccount && acct < 0 {
			acct = p.ID
		}
		if !p.HasAccount && noAcct < 0 {
			noAcct = p.ID
		}
	}
	if acct < 0 || noAcct < 0 {
		t.Fatal("world lacks an account holder or a person without an account")
	}
	withEdge := func(a, b socialgraph.UserID) func(*snapshot) {
		return func(s *snapshot) { s.Edges = append(s.Edges, [2]socialgraph.UserID{a, b}) }
	}
	return []namedInput{
		{"not json", []byte("not json")},
		{"wrong version", []byte(`{"version": 99}`)},
		{"negative endpoint", mutatedJSON(t, w, withEdge(-3, 1))},
		{"endpoint 2^24", mutatedJSON(t, w, withEdge(1, 1<<24))},
		{"edge to a person without an account", mutatedJSON(t, w, withEdge(acct, noAcct))},
		{"self-loop", mutatedJSON(t, w, withEdge(acct, acct))},
		{"null person", mutatedJSON(t, w, func(s *snapshot) { s.People = []*Person{nil} })},
		{"null school", mutatedJSON(t, w, func(s *snapshot) { s.Schools = []*School{nil} })},
		{"school out of range", mutatedJSON(t, w, func(s *snapshot) {
			atMissingSchool(firstAccount(t, s.People, RoleOutside, RoleParent), len(s.Schools))
		})},
		// Records the binary reader rejects as it decodes them, so a JSON
		// world that carried one would not survive the binary format.
		{"school at index 0 with ID 7", mutatedJSON(t, w, func(s *snapshot) { s.Schools[0].ID = 7 })},
		{"role 99", mutatedJSON(t, w, func(s *snapshot) { s.People[0].Role = 99 })},
		{"gender 9", mutatedJSON(t, w, func(s *snapshot) { s.People[0].Gender = 9 })},
		{"-5 photos", mutatedJSON(t, w, func(s *snapshot) { s.People[0].PhotosShared = -5 })},
		{"2^21 photos", mutatedJSON(t, w, func(s *snapshot) { s.People[0].PhotosShared = 1 << 21 })},
	}
}

// mutatedJSON returns w's JSON snapshot after mut edits its decoded form.
func mutatedJSON(t testing.TB, w *World, mut func(*snapshot)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	mut(&s)
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
