package crawler

// Width-invariance tests: the session's pool must make the same logical
// requests, return the same outputs and keep the same Table 3 tally
// whether it runs one worker (the sequential crawl) or several.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hsprofiler/internal/osn"
)

// TestFetcherCollectSeedsMatchesSession: the per-account search walks must
// merge to the one-worker session's deduped seed list at any width, with
// the same seed-request tally.
func TestFetcherCollectSeedsMatchesSession(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{SearchPerAccount: 20})
	d, err := NewDirect(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession(d)
	want, err := ref.CollectSeeds(context.Background(), 1, 0, ref.AllAccounts())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		s := NewSession(d)
		got, err := s.CollectSeeds(context.Background(), workers, 0, s.AllAccounts())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %d seeds, one worker found %d (or order differs)", workers, len(got), len(want))
		}
		if s.Effort() != ref.Effort() {
			t.Fatalf("workers=%d: effort %+v, one worker counted %+v", workers, s.Effort(), ref.Effort())
		}
	}
}

// TestFetcherLogicalMatchesSessionEffort drives the same profile and
// friend-list workload through the pool at 1, 4 and 8 workers: outputs and
// logical request counts must agree.
func TestFetcherLogicalMatchesSessionEffort(t *testing.T) {
	p := testWorldPlatform(t, osn.Config{SearchPerAccount: 20})
	d, err := NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := NewSession(d).CollectSeeds(context.Background(), 1, 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]osn.PublicID, 0, len(seeds))
	for _, s := range seeds {
		ids = append(ids, s.ID)
	}

	var (
		wantProfiles []*osn.PublicProfile
		wantFriends  [][]osn.FriendRef
		wantEffort   Effort
	)
	for _, workers := range []int{1, 4, 8} {
		s := NewSession(d)
		profiles, err := fetchProfiles(context.Background(), s, workers, ids)
		if err != nil {
			t.Fatal(err)
		}
		friends, err := fetchFriendLists(context.Background(), s, workers, ids)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			wantProfiles, wantFriends, wantEffort = profiles, friends, s.Effort()
			if wantEffort.ProfileRequests != len(ids) {
				t.Fatalf("one worker counted %d profile requests for %d ids", wantEffort.ProfileRequests, len(ids))
			}
			continue
		}
		if !reflect.DeepEqual(profiles, wantProfiles) {
			t.Fatalf("workers=%d: profile batch differs from one worker", workers)
		}
		if !reflect.DeepEqual(friends, wantFriends) {
			t.Fatalf("workers=%d: friend lists differ from one worker", workers)
		}
		if got := s.Effort(); got != wantEffort {
			t.Fatalf("workers=%d: effort %+v, one worker counted %+v", workers, got, wantEffort)
		}
	}
}

// fetchProfiles fetches ids over the session's pool, index-aligned with
// ids — the batch shape the attack engine uses.
func fetchProfiles(ctx context.Context, s *Session, workers int, ids []osn.PublicID) ([]*osn.PublicProfile, error) {
	out := make([]*osn.PublicProfile, len(ids))
	err := s.ForEach(ctx, workers, len(ids), func(ctx context.Context, i int) error {
		pp, err := s.FetchProfile(ctx, ids[i])
		if err != nil {
			return fmt.Errorf("crawler: profile %s: %w", ids[i], err)
		}
		out[i] = pp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fetchFriendLists fetches the complete friend lists of ids over the
// session's pool, index-aligned with ids. Hidden lists yield a nil entry,
// visible but empty ones an empty slice.
func fetchFriendLists(ctx context.Context, s *Session, workers int, ids []osn.PublicID) ([][]osn.FriendRef, error) {
	out := make([][]osn.FriendRef, len(ids))
	err := s.ForEach(ctx, workers, len(ids), func(ctx context.Context, i int) error {
		friends, err := s.FetchFriends(ctx, ids[i])
		if errors.Is(err, osn.ErrHidden) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("crawler: friends of %s: %w", ids[i], err)
		}
		if friends == nil {
			friends = []osn.FriendRef{}
		}
		out[i] = friends
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
