package core

import (
	"testing"
	"time"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// TestAttackSurvivesAdaptiveThrottle runs the complete methodology against
// a platform with sliding-window rate limiting: the crawler's backoff must
// carry it through without data loss.
func TestAttackSurvivesAdaptiveThrottle(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{
		ThrottleLimit:  200,
		ThrottleWindow: time.Minute,
	})
	clock := time.Unix(1000, 0)
	p.SetClock(func() time.Time { return clock })
	d, err := crawler.NewDirect(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := crawler.NewSession(d)
	sess.Sleep = func(time.Duration) { clock = clock.Add(30 * time.Second) }
	res, err := Run(sess, Params{
		SchoolName:   w.Schools[0].Name,
		CurrentYear:  2012,
		Mode:         Enhanced,
		MaxThreshold: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateCount() == 0 {
		t.Fatal("throttled run produced no candidates")
	}

	// The throttled run must produce the same inference as an unthrottled
	// one over the same world (backoff changes timing, not data).
	p2 := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	d2, err := crawler.NewDirect(p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(crawler.NewSession(d2), Params{
		SchoolName:   w.Schools[0].Name,
		CurrentYear:  2012,
		Mode:         Enhanced,
		MaxThreshold: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateCount() != res2.CandidateCount() || res.ExtendedCoreSize != res2.ExtendedCoreSize {
		t.Fatalf("throttling changed results: %d/%d vs %d/%d",
			res.CandidateCount(), res.ExtendedCoreSize, res2.CandidateCount(), res2.ExtendedCoreSize)
	}
}
