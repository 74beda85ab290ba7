package osn

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

// comparePlatformEpochs asserts that the current epoch of got (advanced
// incrementally) is indistinguishable from the current epoch of want (a
// fresh full build over the same world): frozen CSR byte-identical, every
// read-plane array value-equal, indexes and school table equal.
func comparePlatformEpochs(t *testing.T, label string, got, want *Platform) {
	t.Helper()
	eg, ew := got.cur.Load(), want.cur.Load()
	if !bytes.Equal(eg.read.frozen.AppendBinary(nil), ew.read.frozen.AppendBinary(nil)) {
		t.Fatalf("%s: frozen CSR binary diverges from full rebuild", label)
	}
	if !reflect.DeepEqual(eg.read.names, ew.read.names) {
		t.Fatalf("%s: names diverge", label)
	}
	if !reflect.DeepEqual(eg.read.regMinor, ew.read.regMinor) ||
		!reflect.DeepEqual(eg.read.searchEligible, ew.read.searchEligible) ||
		!reflect.DeepEqual(eg.read.friendVisible, ew.read.friendVisible) {
		t.Fatalf("%s: policy flags diverge", label)
	}
	if !reflect.DeepEqual(eg.read.profiles, ew.read.profiles) {
		t.Fatalf("%s: rendered profiles diverge", label)
	}
	// Friend lists are a pure serve-time view over the frozen CSR,
	// friendVisible and names — all three compared above — so there is no
	// materialized friend-list state left to diverge; the serving
	// transcript below still exercises the rendered pages end to end.
	checkIndexesAscending(t, label, ew)
	if !reflect.DeepEqual(eg.searchIndex, ew.searchIndex) {
		t.Fatalf("%s: search indexes diverge", label)
	}
	if !reflect.DeepEqual(eg.cityIndex, ew.cityIndex) {
		t.Fatalf("%s: city indexes diverge", label)
	}
	if !reflect.DeepEqual(eg.schools, ew.schools) || !reflect.DeepEqual(eg.currentYear, ew.currentYear) {
		t.Fatalf("%s: school table diverges", label)
	}
}

// checkIndexesAscending fails unless every school and city index of e is
// strictly ascending, as buildEpoch appends them in person-ID order.
func checkIndexesAscending(t *testing.T, label string, e *epoch) {
	t.Helper()
	for s, idx := range e.searchIndex {
		for i := 1; i < len(idx); i++ {
			if idx[i-1] >= idx[i] {
				t.Fatalf("%s: school %d index not strictly ascending at %d", label, s, i)
			}
		}
	}
	for city, idx := range e.cityIndex {
		for i := 1; i < len(idx); i++ {
			if idx[i-1] >= idx[i] {
				t.Fatalf("%s: city %q index not strictly ascending at %d", label, city, i)
			}
		}
	}
}

// registerSeq registers n accounts in a fixed order so two platforms over
// the same world consume their token/identity streams identically; returns
// the last token.
func registerSeq(t *testing.T, p *Platform, n int) string {
	t.Helper()
	var tok string
	for i := 1; i <= n; i++ {
		var err error
		tok, err = p.RegisterAccount(fmt.Sprintf("inc%d", i), sim.Date{Year: 1981, Month: 3, Day: 4})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tok
}

// runIncrementalChain evolves a world for years epochs, advancing p1
// incrementally each year, and checks every epoch against a fresh full
// build — read plane, indexes, and a full serving transcript.
func runIncrementalChain(t *testing.T, pol *Policy, years int) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.TinyConfig(), 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SearchPerAccount: 500}
	p1 := NewPlatform(w, pol, cfg)
	ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), 2)
	for e := 1; e <= years; e++ {
		d, err := ev.Step(w, e)
		if err != nil {
			t.Fatalf("evolve %d: %v", e, err)
		}
		st := p1.AdvanceEpochDelta(context.Background(), d)
		if !st.Incremental {
			t.Fatalf("epoch %d: advance did not take the incremental path", e)
		}
		if st.Seq != uint64(e) {
			t.Fatalf("epoch seq %d, want %d", st.Seq, e)
		}
		if st.DirtyProfiles == 0 || st.DirtyRows == 0 {
			t.Fatalf("epoch %d: no dirty work recorded for a real delta", e)
		}
		fresh := NewPlatform(w, pol, cfg)
		comparePlatformEpochs(t, fmt.Sprintf("epoch %d", e), p1, fresh)
		// Served pages: p1 registers one account per epoch; the fresh
		// platform replays the whole registration history, so the token
		// and view-permutation streams line up and the full mixed
		// transcript must be byte-identical too.
		tok1, err := p1.RegisterAccount(fmt.Sprintf("inc%d", e), sim.Date{Year: 1981, Month: 3, Day: 4})
		if err != nil {
			t.Fatal(err)
		}
		tokF := registerSeq(t, fresh, e)
		s1 := servingScript(p1, tok1)
		sF := servingScript(fresh, tokF)
		if !reflect.DeepEqual(s1, sF) {
			for i := range s1 {
				if i < len(sF) && s1[i] != sF[i] {
					t.Logf("first divergence at line %d:\n incr: %s\n full: %s", i, s1[i], sF[i])
					break
				}
			}
			t.Fatalf("epoch %d: serving transcript diverges from full rebuild", e)
		}
	}
}

// TestIncrementalEpochMatchesFull: an N-delta incremental epoch chain must
// be indistinguishable — CSR binary, rendered views, indexes, served pages
// — from a full rebuild of the evolved world at every step.
func TestIncrementalEpochMatchesFull(t *testing.T) {
	runIncrementalChain(t, Facebook(), 4)
}

// TestIncrementalEpochMatchesFullReverseLookupFilter exercises the §8
// countermeasure policy (hidden-list users filtered out of other users'
// visible lists): visibility flips then dirty not just the flipped row but
// its neighbors — the second-order propagation the incremental build must
// get right.
func TestIncrementalEpochMatchesFullReverseLookupFilter(t *testing.T) {
	pol := Facebook()
	pol.HiddenListsInReverseLookup = false
	runIncrementalChain(t, pol, 3)
}

// TestIncrementalEpochPolicyFlipFallsBack: a policy flip invalidates every
// pre-resolved view, so the advance must fall back to the full build — and
// still match a fresh platform under the new policy.
func TestIncrementalEpochPolicyFlipFallsBack(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SearchPerAccount: 500}
	p1 := NewPlatform(w, Facebook(), cfg)
	ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), 1)
	d, err := ev.Step(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	flipped := Facebook()
	flipped.MinorsSearchable = true
	p1.SetPolicy(flipped)
	st := p1.AdvanceEpochDelta(context.Background(), d)
	if st.Incremental {
		t.Fatal("policy-flip advance took the incremental path")
	}
	comparePlatformEpochs(t, "policy flip", p1, NewPlatform(w, flipped, cfg))

	// With the policy now stable, the next advance is incremental again
	// and still matches.
	d, err = ev.Step(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	st = p1.AdvanceEpochDelta(context.Background(), d)
	if !st.Incremental {
		t.Fatal("post-flip advance did not return to the incremental path")
	}
	comparePlatformEpochs(t, "post flip", p1, NewPlatform(w, flipped, cfg))
}
