package osn

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

// TestConcurrentEpochRotation hammers the read plane from many goroutines
// while the world evolves and epochs rotate underneath them. It proves the
// three load-bearing properties of the rotation design:
//
//  1. No torn pages: every observation that carries an epoch id is
//     internally consistent with that epoch (a same-epoch search walk is
//     duplicate-free and repeatable; a profile that advertises a visible
//     friend list is never ErrHidden within its own epoch).
//  2. Serving never sees time move backwards: per-goroutine epoch ids are
//     monotonically non-decreasing.
//  3. Retired epochs actually drain: once the readers stop, every replaced
//     epoch has zero pins and has been released — the pin accounting does
//     not leak epochs.
//
// Run under -race this is also the data-race proof for the epoch swap.
func TestConcurrentEpochRotation(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(w, Facebook(), Config{SearchPerAccount: 60}).Instrument(obs.NewRegistry())
	const readers = 8
	toks := make([]string, readers)
	for i := range toks {
		tok, err := p.RegisterAccount(fmt.Sprintf("rot%d", i), sim.Date{Year: 1980, Month: 2, Day: 3})
		if err != nil {
			t.Fatal(err)
		}
		toks[i] = tok
	}

	// sameEpochWalk pages through a school search; epoch is the newest epoch
	// the walk saw, and ok reports whether every page (and the follow-up
	// profile reads) came from one epoch — only then are cross-page
	// assertions meaningful.
	sameEpochWalk := func(tok string) (ids []PublicID, epoch uint64, ok bool) {
		for page := 0; ; page++ {
			res, more, eid, err := p.SchoolSearchEpoch(tok, 0, page)
			if err != nil {
				t.Errorf("school search: %v", err)
				return nil, 0, false
			}
			if page == 0 {
				epoch = eid
			} else if eid != epoch {
				return nil, eid, false // rotated mid-walk: cursor restarted, no claim
			}
			for _, r := range res {
				ids = append(ids, r.ID)
			}
			if !more {
				return ids, epoch, true
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(tok string) {
			defer wg.Done()
			var lastEpoch uint64
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				ids, epoch, ok := sameEpochWalk(tok)
				if epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", epoch, lastEpoch)
				}
				lastEpoch = epoch
				if !ok {
					continue
				}
				seen := make(map[PublicID]bool, len(ids))
				for _, id := range ids {
					if seen[id] {
						t.Errorf("torn page: duplicate result %s in one-epoch walk", id)
					}
					seen[id] = true
				}
				// A same-epoch re-walk is the account's cached cursor: it
				// must replay identically.
				if ids2, epoch2, ok2 := sameEpochWalk(tok); ok2 && epoch2 == epoch && !reflect.DeepEqual(ids, ids2) {
					t.Errorf("torn page: same-epoch walk not repeatable (epoch %d)", epoch)
				}
				// Cross-endpooint consistency: profile and friend page agree
				// when served by the same epoch.
				for _, id := range ids {
					pp, pe, err := p.ProfileEpoch(tok, id)
					if err != nil {
						t.Errorf("profile %s: %v", id, err)
						continue
					}
					_, fe, ferr := p.FriendPageFunc(tok, id, 0, func(FriendRef) {})
					if pe != fe {
						continue // swap in between: no claim
					}
					if pp.FriendListVisible && errors.Is(ferr, ErrHidden) {
						t.Errorf("torn page: epoch %d profile says visible, friend list hidden", pe)
					}
					if !pp.FriendListVisible && ferr == nil {
						t.Errorf("torn page: epoch %d profile says hidden, friend list served", pe)
					}
				}
			}
		}(toks[i])
	}

	// Rotate epochs while the readers hammer. Each advance evolves the
	// world one simulated year first, so consecutive epochs genuinely
	// differ (graduations, churn, new ties). Odd epochs advance through
	// the incremental dirty-set build, even ones through the full rebuild,
	// so both paths are exercised under -race against concurrent readers
	// — including the structural sharing between a retiring epoch and its
	// incremental successor.
	const epochs = 4
	ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), 2)
	var retired []*epoch
	for e := 1; e <= epochs; e++ {
		d, err := ev.Step(w, e)
		if err != nil {
			t.Fatalf("evolve %d: %v", e, err)
		}
		old := p.cur.Load()
		var st EpochStats
		if e%2 == 1 {
			st = p.AdvanceEpochDelta(context.Background(), d)
			if !st.Incremental {
				t.Fatalf("epoch %d: advance did not take the incremental path", e)
			}
		} else {
			st = p.AdvanceEpoch(context.Background())
		}
		if st.Seq != old.seq+1 {
			t.Fatalf("epoch seq %d after %d", st.Seq, old.seq)
		}
		retired = append(retired, old)
	}
	close(stop)
	wg.Wait()

	// Drain check: with every reader gone, each replaced epoch must have
	// zero pins and be released (the last unpin, or the swap itself,
	// triggered release exactly once).
	for _, old := range retired {
		if n := old.pins.Load(); n != 0 {
			t.Errorf("epoch %d still pinned %d times after readers stopped", old.seq, n)
		}
		if !old.released.Load() {
			t.Errorf("epoch %d never released: retired-epoch leak", old.seq)
		}
	}
	cur := p.cur.Load()
	if cur.seq != epochs {
		t.Fatalf("current epoch %d, want %d", cur.seq, epochs)
	}
	if cur.released.Load() || cur.retiring.Load() {
		t.Fatal("current epoch marked retiring/released")
	}
	// The instruments agree with the drain.
	if got := p.epochsLiveG.Value(); got != 1 {
		t.Fatalf("epochs_live gauge %v after full drain, want 1", got)
	}
	if got := p.epochRetired.Value(); got != epochs {
		t.Fatalf("epochs_retired %v, want %d", got, epochs)
	}
}

// TestEpochStaticPlatformUnchanged is the bit-compat half of the refactor:
// a platform that never advances serves epoch 0 forever, and its serving
// outputs are exactly the pre-epoch platform's (the golden Tables 2-4 in
// internal/experiments cover the full pipeline; this pins the primitive).
func TestEpochStaticPlatformUnchanged(t *testing.T) {
	p := testPlatform(t, Config{SearchPerAccount: 60})
	if got := p.EpochSeq(); got != 0 {
		t.Fatalf("static platform at epoch %d, want 0", got)
	}
	tok := attacker(t, p)
	first, _, eid, err := p.SchoolSearchEpoch(tok, 0, 0)
	if err != nil || eid != 0 {
		t.Fatalf("epoch search: eid=%d err=%v", eid, err)
	}
	again, _, err := p.SchoolSearch(tok, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("epoch-labelled and plain search disagree on a static platform")
	}
}
