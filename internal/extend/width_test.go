package extend

import (
	"context"
	"reflect"
	"testing"
	"time"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/faults"
)

// TestBuildWidthInvariantUnderFaults: over a 10%-faulted client, the
// dossier and the session's Effort delta must be the same at 1 and 8
// workers — and the dossier the same as the clean one.
func TestBuildWidthInvariantUnderFaults(t *testing.T) {
	f := buildFixture(t)
	type outcome struct {
		d               *Dossier
		effort, retries crawler.Effort
	}
	build := func(workers int) outcome {
		d, err := crawler.NewDirect(f.platform, 2)
		if err != nil {
			t.Fatal(err)
		}
		sess := crawler.NewSession(faults.New(faults.Composite(0.10, 7)).Client(d))
		sess.Sleep = func(time.Duration) {}
		before := sess.Effort()
		dossier, err := Build(context.Background(), sess, workers, f.sel)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{d: dossier, effort: sess.Effort().Sub(before), retries: sess.Retries()}
	}
	one, eight := build(1), build(8)
	if one.retries.Total() == 0 {
		t.Fatal("faulted build reports no retries; injector inert?")
	}
	if !reflect.DeepEqual(one.d, eight.d) {
		t.Error("dossier differs between 1 and 8 workers")
	}
	if one.effort != eight.effort || one.retries != eight.retries {
		t.Errorf("effort %+v retries %+v at 1 worker, %+v %+v at 8",
			one.effort, one.retries, eight.effort, eight.retries)
	}
	if one.effort.ProfileRequests != len(f.sel) || one.effort.FriendListRequests < len(one.d.PublicFriends) {
		t.Errorf("dossier effort %+v: want one profile per student (%d) and a page per public list (%d)",
			one.effort, len(f.sel), len(one.d.PublicFriends))
	}
	if !reflect.DeepEqual(one.d, f.dossier) {
		t.Error("faulted dossier differs from the clean one")
	}
}
