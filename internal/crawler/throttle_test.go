package crawler

import (
	"context"
	"errors"
	"testing"
	"time"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// fakeClock is a mutable time source for throttle tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// advanceBackoff advances the fake clock instead of sleeping, so throttle
// retries succeed instantly in test time.
func advanceBackoff(c *fakeClock, step time.Duration) func(time.Duration) {
	return func(time.Duration) { c.t = c.t.Add(step) }
}

func TestSessionRetriesThrottled(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{
		ThrottleLimit:  5,
		ThrottleWindow: time.Minute,
	})
	clock := &fakeClock{t: time.Unix(1000, 0)}
	p.SetClock(clock.now)
	d, err := NewDirect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(d)
	sess.Sleep = advanceBackoff(clock, 20*time.Second)

	// Far more requests than the window allows in one instant: the
	// session must ride the throttle via backoff and still finish.
	seeds, err := sess.CollectSeeds(context.Background(), 1, 0, sess.AllAccounts())
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds under throttling")
	}
	for i, s := range seeds {
		if i >= 12 {
			break
		}
		if _, err := sess.FetchProfile(context.Background(), s.ID); err != nil {
			t.Fatalf("profile %d under throttle: %v", i, err)
		}
	}
}

func TestSessionThrottleRetriesExhaust(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{
		ThrottleLimit:  1,
		ThrottleWindow: time.Hour,
	})
	clock := &fakeClock{t: time.Unix(1000, 0)}
	p.SetClock(clock.now)
	d, err := NewDirect(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(d)
	sess.Sleep = func(time.Duration) {} // never advances time: retries cannot help

	if _, _, err := d.Search(0, 0, 0); err != nil {
		t.Fatal(err) // consume the only slot
	}
	_, err = sess.CollectSeeds(context.Background(), 1, 0, sess.AllAccounts())
	if !errors.Is(err, osn.ErrThrottled) {
		t.Fatalf("got %v, want ErrThrottled after retries exhaust", err)
	}
	if got := sess.Retries().SeedRequests; got != maxRetries {
		t.Fatalf("%d seed retries before giving up, want the budget of %d", got, maxRetries)
	}
	if got := sess.Failures().SeedRequests; got != 1 {
		t.Fatalf("%d seed failures, want 1", got)
	}
}
