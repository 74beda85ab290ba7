package bench

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/loadgen"
	"hsprofiler/internal/osn"
)

// onTimeLimit is the latency a read must meet, measured from when it was
// due, to count as on time.
const onTimeLimit = 5 * time.Millisecond

// readReq is one read of the mix.
type readReq struct {
	kind   int // 0 search, 1 profile, 2 friends
	acct   int
	school int
	target osn.PublicID
	page   int
}

// readPlan is the read mix: loadgen.DefaultMix's weights over seed-picked
// search pages, profiles and friend-list pages. The i-th read is a pure
// function of (seed, i), never of scheduling.
type readPlan struct {
	seed     uint64
	mix      loadgen.Mix
	accounts int
	schools  []int
	pages    int
	targets  []osn.PublicID
}

// splitmix64 is the index hash behind every seed-driven pick.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (pl *readPlan) pick(i uint64) readReq {
	h := splitmix64(pl.seed ^ splitmix64(i))
	total := uint64(pl.mix.Search + pl.mix.Profile + pl.mix.Friends)
	w := int(h % total)
	h = splitmix64(h)
	r := readReq{acct: int(h % uint64(pl.accounts))}
	h = splitmix64(h)
	switch {
	case w < pl.mix.Search:
		r.kind = 0
		r.school = pl.schools[h%uint64(len(pl.schools))]
		r.page = int((h >> 32) % uint64(pl.pages))
	case w < pl.mix.Search+pl.mix.Profile:
		r.kind = 1
		r.target = pl.targets[h%uint64(len(pl.targets))]
	default:
		r.kind = 2
		r.target = pl.targets[h%uint64(len(pl.targets))]
		r.page = int((h >> 32) % 2)
	}
	return r
}

// do issues the i-th read. Hidden lists and unknown users are the platform
// answering as designed, so they are not errors here.
func (pl *readPlan) do(c crawler.Client, i uint64) error {
	r := pl.pick(i)
	var err error
	switch r.kind {
	case 0:
		_, _, err = c.Search(r.acct, r.school, r.page)
	case 1:
		_, err = c.Profile(r.acct, r.target)
	default:
		_, _, err = c.FriendPage(r.acct, r.target, r.page)
	}
	if errors.Is(err, osn.ErrHidden) || errors.Is(err, osn.ErrNotFound) {
		return nil
	}
	return err
}

// loadResult is what one open- or closed-loop phase measured. Latencies
// cover the measured window only; warm-up requests are sent but not kept.
type loadResult struct {
	Due     int `json:"due"`
	OnTime  int `json:"on_time"`
	Dropped int `json:"dropped"`
	Failed  int `json:"failed"`
	// Sent counts every request issued, warm-up included.
	Sent int `json:"sent"`
	// LatencyMS are completed requests' latencies: from the due time in an
	// open loop, from the send in a closed loop.
	LatencyMS []float64 `json:"-"`
	// LagUS is how late each open-loop send left after its due time.
	LagUS  []float64 `json:"-"`
	Window float64   `json:"window_s"`
}

// OnTimePct is the share of due requests that completed OK within the
// limit; dropped and failed requests count as late.
func (r loadResult) OnTimePct() float64 {
	if r.Due == 0 {
		return 0
	}
	return 100 * float64(r.OnTime) / float64(r.Due)
}

func (r *loadResult) merge(o loadResult) {
	r.Due += o.Due
	r.OnTime += o.OnTime
	r.Dropped += o.Dropped
	r.Failed += o.Failed
	r.Sent += o.Sent
	r.LatencyMS = append(r.LatencyMS, o.LatencyMS...)
	r.LagUS = append(r.LagUS, o.LagUS...)
}

// openLoop sends arrivals on a fixed schedule — one every 1/rate seconds —
// from a fixed set of persistent senders, one connection each. A free
// sender claims the next arrival and sleeps until it is due. An arrival
// that comes due while every sender is in the middle of a request is
// dropped, never queued, and counts as late; one that a sender picks up
// late only because its timer fired late is sent at once, and the lateness
// counts in its latency and in the send lag. Arrivals due before warmup are
// sent but not measured. The loop ends after warmup+window, or — with
// window 0 — at the first due time after stop is closed.
func openLoop(rate float64, senders int, warmup, window time.Duration, stop <-chan struct{}, do func(i uint64) error) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	measureFrom := start.Add(warmup)
	var end atomic.Int64 // due-time cutoff, as UnixNano; 0 = open-ended
	stopNow := func() { end.CompareAndSwap(0, time.Now().UnixNano()) }
	if window > 0 {
		end.Store(measureFrom.Add(window).UnixNano())
	} else {
		go func() {
			<-stop
			stopNow()
		}()
	}
	past := func(due time.Time) bool {
		e := end.Load()
		return e != 0 && due.UnixNano() >= e
	}
	states := make([]senderState, senders)
	allBusyAt := func(t int64) bool {
		for k := range states {
			if !states[k].busyAt(t) {
				return false
			}
		}
		return true
	}
	var next atomic.Uint64
	results := make([]loadResult, senders)
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(res *loadResult, st *senderState) {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			timer.Stop()
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(i) * interval)
				if past(due) {
					return
				}
				measured := !due.Before(measureFrom)
				if d := time.Until(due); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-stop:
						stopNow()
						if past(due) {
							timer.Stop()
							return
						}
						<-timer.C
					}
				} else if allBusyAt(due.UnixNano()) {
					if measured {
						res.Due++
						res.Dropped++
					}
					continue
				}
				sent := time.Now()
				st.cur.Store(sent.UnixNano())
				err := do(i)
				done := time.Now()
				st.finish(sent.UnixNano(), done.UnixNano())
				res.Sent++
				if !measured {
					continue
				}
				res.Due++
				res.LagUS = append(res.LagUS, float64(sent.Sub(due).Nanoseconds())/1e3)
				lat := done.Sub(due)
				if err != nil {
					res.Failed++
					continue
				}
				res.LatencyMS = append(res.LatencyMS, float64(lat.Nanoseconds())/1e6)
				if lat <= onTimeLimit {
					res.OnTime++
				}
			}
		}(&results[k], &states[k])
	}
	wg.Wait()
	var out loadResult
	for _, r := range results {
		out.merge(r)
	}
	out.Window = time.Unix(0, end.Load()).Sub(measureFrom).Seconds()
	return out
}

// senderState is when one sender's current and previous requests ran, as
// UnixNano (0 = none), so a late-claimed arrival can ask whether every
// sender was in a request at its due time.
type senderState struct {
	cur, prevStart, prevEnd atomic.Int64
}

func (s *senderState) finish(start, end int64) {
	s.prevStart.Store(start)
	s.prevEnd.Store(end)
	s.cur.Store(0)
}

func (s *senderState) busyAt(t int64) bool {
	if c := s.cur.Load(); c != 0 && c <= t {
		return true
	}
	ps, pe := s.prevStart.Load(), s.prevEnd.Load()
	return ps != 0 && ps <= t && t < pe
}

// closedLoop runs senders tight request loops: each sends its next request
// as soon as the previous one completes. Latency is pure service time.
func closedLoop(senders int, warmup, window time.Duration, do func(i uint64) error) loadResult {
	start := time.Now()
	measureFrom := start.Add(warmup)
	end := measureFrom.Add(window)
	var next atomic.Uint64
	results := make([]loadResult, senders)
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				err := do(next.Add(1) - 1)
				lat := time.Since(sent)
				res.Sent++
				if sent.Before(measureFrom) {
					continue
				}
				res.Due++
				if err != nil {
					res.Failed++
					continue
				}
				res.LatencyMS = append(res.LatencyMS, float64(lat.Nanoseconds())/1e6)
				if lat <= onTimeLimit {
					res.OnTime++
				}
			}
		}(&results[k])
	}
	wg.Wait()
	var out loadResult
	for _, r := range results {
		out.merge(r)
	}
	out.Window = window.Seconds()
	return out
}
