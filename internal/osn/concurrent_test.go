package osn

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
	"hsprofiler/internal/worldgen"
)

// concurrentWorld is shared by the serving-equivalence tests (generation is
// the expensive part; the platforms under test are built fresh each time).
var (
	concurrentWorldOnce sync.Once
	concurrentWorld     *worldgen.World
)

func testWorld(t testing.TB) *worldgen.World {
	t.Helper()
	concurrentWorldOnce.Do(func() {
		w, err := worldgen.Generate(worldgen.TinyConfig(), 7)
		if err != nil {
			t.Fatal(err)
		}
		concurrentWorld = w
	})
	return concurrentWorld
}

// servingScript replays a fixed mixed read workload for one account and
// records every observable output. The platform is deterministic per
// (token, request), so the transcript must be identical no matter how many
// other accounts are hammering the platform at the same time.
func servingScript(p *Platform, tok string) []string {
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	var firstPage []SearchResult
	for page := 0; page < 4; page++ {
		results, more, err := p.SchoolSearch(tok, 0, page)
		note("search p%d: %v more=%v err=%v", page, results, more, err)
		if page == 0 {
			firstPage = results
		}
	}
	city := p.Schools()[0].City
	cres, cmore, cerr := p.CitySearch(tok, city, 0)
	note("city: %v more=%v err=%v", cres, cmore, cerr)
	gres, gmore, gerr := p.GraphSearch(tok, GraphQuery{SchoolID: 0, CurrentStudents: true}, 0)
	note("graph: %v more=%v err=%v", gres, gmore, gerr)

	n := len(firstPage)
	if n > 8 {
		n = 8
	}
	for _, sr := range firstPage[:n] {
		pp, err := p.Profile(tok, sr.ID)
		if err != nil {
			note("profile %s: err=%v", sr.ID, err)
			continue
		}
		note("profile %s: name=%s hs=%s gy=%d flv=%v searchable=%v",
			pp.ID, pp.Name, pp.HighSchool, pp.GradYear, pp.FriendListVisible, pp.Searchable)
		for page := 0; page < 2; page++ {
			friends, more, err := p.FriendPage(tok, sr.ID, page)
			note("friends %s p%d: %v more=%v err=%v", sr.ID, page, friends, more, err)
		}
	}
	return out
}

// TestConcurrentServingMatchesSequential is the read-plane correctness
// property: N accounts hammering Search/Profile/FriendPage in parallel
// observe exactly what a sequential replay observes. Run under -race this
// also proves the two-plane split has no data races.
func TestConcurrentServingMatchesSequential(t *testing.T) {
	w := testWorld(t)
	const accounts = 8
	build := func() (*Platform, []string) {
		p := NewPlatform(w, Facebook(), Config{SearchPerAccount: 60})
		toks := make([]string, accounts)
		for i := range toks {
			tok, err := p.RegisterAccount(fmt.Sprintf("acct%d", i), sim.Date{Year: 1980, Month: 2, Day: 3})
			if err != nil {
				t.Fatal(err)
			}
			toks[i] = tok
		}
		return p, toks
	}

	seqP, seqToks := build()
	want := make([][]string, accounts)
	for i, tok := range seqToks {
		want[i] = servingScript(seqP, tok)
	}

	// Tokens are assigned from a sequence, so a fresh platform registered
	// in the same order hands out the same tokens — and therefore the same
	// per-account views.
	conP, conToks := build()
	if !reflect.DeepEqual(seqToks, conToks) {
		t.Fatalf("token assignment not deterministic: %v vs %v", seqToks, conToks)
	}
	got := make([][]string, accounts)
	var wg sync.WaitGroup
	for i, tok := range conToks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Two passes: the second hits the cached search views.
			got[i] = servingScript(conP, tok)
			if rerun := servingScript(conP, tok); !reflect.DeepEqual(rerun, got[i]) {
				t.Errorf("account %d: second pass diverged", i)
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("account %d: concurrent transcript diverged from sequential replay:\nseq: %v\ncon: %v",
				i, want[i], got[i])
		}
	}
}

// TestShardBudgetUnderContention proves the control plane counts exactly:
// with a request budget of B, exactly B requests succeed no matter how
// many goroutines race on the account, and every later request reports
// suspension.
func TestShardBudgetUnderContention(t *testing.T) {
	const budget = 100
	p := testPlatform(t, Config{RequestBudget: budget})
	tok := attacker(t, p)
	id := someVisibleProfile(t, p)

	var served, suspended, other atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ { // 320 attempts total
				_, err := p.Profile(tok, id)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrSuspended):
					suspended.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if served.Load() != budget {
		t.Fatalf("served %d requests, budget is %d", served.Load(), budget)
	}
	if other.Load() != 0 {
		t.Fatalf("%d unexpected errors", other.Load())
	}
	if _, err := p.Profile(tok, id); !errors.Is(err, ErrSuspended) {
		t.Fatalf("account not suspended after budget: %v", err)
	}
}

// TestShardThrottleUnderContention: with a fixed clock and limit L, exactly
// L concurrent requests pass the throttle.
func TestShardThrottleUnderContention(t *testing.T) {
	const limit = 50
	p := testPlatform(t, Config{ThrottleLimit: limit, ThrottleWindow: time.Minute})
	now := time.Unix(5000, 0)
	p.SetClock(func() time.Time { return now })
	tok := attacker(t, p)
	id := someVisibleProfile(t, p)

	var served, throttled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ { // 160 attempts
				_, err := p.Profile(tok, id)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrThrottled):
					throttled.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if served.Load() != limit {
		t.Fatalf("served %d, limit %d", served.Load(), limit)
	}
	if throttled.Load() != 160-limit {
		t.Fatalf("throttled %d, want %d", throttled.Load(), 160-limit)
	}
}

// TestConcurrentRegistration: racing registrations all get distinct,
// immediately usable tokens.
func TestConcurrentRegistration(t *testing.T) {
	p := testPlatform(t, Config{})
	const n = 64
	toks := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tok, err := p.RegisterAccount(fmt.Sprintf("r%d", i), sim.Date{Year: 1980, Month: 1, Day: 1})
			if err != nil {
				t.Errorf("register %d: %v", i, err)
				return
			}
			if _, _, err := p.SchoolSearch(tok, 0, 0); err != nil {
				t.Errorf("fresh token %q rejected: %v", tok, err)
			}
			toks[i] = tok
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for _, tok := range toks {
		if seen[tok] {
			t.Fatalf("duplicate token %q", tok)
		}
		seen[tok] = true
	}
}

// someVisibleProfile returns the public ID of an account holder with a
// stranger-visible friend list.
func someVisibleProfile(t testing.TB, p *Platform) PublicID {
	t.Helper()
	for _, person := range p.world.People {
		if person.HasAccount && p.cur.Load().read.friendVisible[person.ID] {
			return p.pub[person.ID]
		}
	}
	t.Fatal("no visible profile in world")
	return ""
}

// TestReadPlaneZeroAlloc guards the read path: a profile render, a friend
// page streamed through FriendPageFunc and a school search page are served
// entirely from the pinned epoch, with zero allocations per request. It
// holds on the static platform and again after each of three incremental
// epoch advances over the evolving world, so rotation cannot put an
// allocation on the read path or silently fall back to full rebuilds.
func TestReadPlaneZeroAlloc(t *testing.T) {
	p := testPlatform(t, Config{})
	tok := attacker(t, p)
	readPlaneAllocs(t, "static", p, tok)
	ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), 2)
	for year := 1; year <= 3; year++ {
		d, err := ev.Step(p.World(), year)
		if err != nil {
			t.Fatalf("evolve year %d: %v", year, err)
		}
		if st := p.AdvanceEpochDelta(context.Background(), d); !st.Incremental {
			t.Fatalf("year %d: advance did not take the incremental path", year)
		}
		readPlaneAllocs(t, fmt.Sprintf("year %d", year), p, tok)
	}
}

// readPlaneAllocs fails the test unless one profile, friend page and
// search page read on the current epoch allocates nothing. AllocsPerRun's
// warm-up call fills the account's search view for the epoch.
func readPlaneAllocs(t *testing.T, label string, p *Platform, tok string) {
	t.Helper()
	id := someVisibleProfile(t, p)
	emit := func(FriendRef) {}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Profile(tok, id); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.FriendPageFunc(tok, id, 0, emit); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.SchoolSearch(tok, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%s: read plane allocates %v allocs per profile/friends/search triple, want 0", label, allocs)
	}
}

// TestConfigThrottleWindowDefault covers the withDefaults fix: a positive
// limit with a zero window used to yield a cutoff of "now", so the window
// never held any request and the limiter silently never fired.
func TestConfigThrottleWindowDefault(t *testing.T) {
	p := testPlatform(t, Config{ThrottleLimit: 2}) // no window given
	now := time.Unix(1000, 0)
	p.SetClock(func() time.Time { return now })
	tok := attacker(t, p)
	for i := 0; i < 2; i++ {
		if _, _, err := p.SchoolSearch(tok, 0, 0); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if _, _, err := p.SchoolSearch(tok, 0, 0); !errors.Is(err, ErrThrottled) {
		t.Fatalf("limiter did not fire with defaulted window: %v", err)
	}
	// The default window must actually drain.
	now = now.Add(DefaultConfig().ThrottleWindow + time.Second)
	if _, _, err := p.SchoolSearch(tok, 0, 0); err != nil {
		t.Fatalf("window did not drain: %v", err)
	}
}

// TestConfigNegativeValuesNormalized: negative knobs cannot smuggle in
// broken behaviour.
func TestConfigNegativeValuesNormalized(t *testing.T) {
	c := Config{
		SearchPerAccount: -1,
		SearchPageSize:   -2,
		FriendPageSize:   -3,
		RequestBudget:    -4,
		ThrottleLimit:    -5,
		ThrottleWindow:   -time.Second,
	}.withDefaults()
	d := DefaultConfig()
	if c.SearchPerAccount != d.SearchPerAccount || c.SearchPageSize != d.SearchPageSize ||
		c.FriendPageSize != d.FriendPageSize {
		t.Fatalf("negative sizes not defaulted: %+v", c)
	}
	if c.RequestBudget != 0 {
		t.Fatalf("negative budget not normalized to unlimited: %d", c.RequestBudget)
	}
	if c.ThrottleLimit != 0 {
		t.Fatalf("negative throttle limit not normalized to disabled: %d", c.ThrottleLimit)
	}
	if c.ThrottleWindow != d.ThrottleWindow {
		t.Fatalf("negative window not defaulted: %v", c.ThrottleWindow)
	}
}

// TestConcurrentPinnedEpochKeepsItsArrays: a request pinned inside
// FriendPageFunc's emit holds its epoch's CSR snapshot across two more
// evolve-and-advance rounds. While it is pinned, it re-reads every friend
// page of its epoch, concurrently with the rounds, and each read must equal
// a copy taken before them, although the first round reuses the drained
// epoch before it and the second round's only spare is the pinned
// snapshot. Once the pin drops, the next round writes into the pinned
// snapshot's arrays, and reads of that snapshot panic. Under -race a round
// that wrote into arrays the request still reads is also a reported data
// race.
func TestConcurrentPinnedEpochKeepsItsArrays(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 23)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(w, Facebook(), Config{})
	tok := attacker(t, p)
	ev := worldgen.NewEvolver(worldgen.DefaultEvolveConfig(), 2)
	round := func(year int) {
		t.Helper()
		d, err := ev.Step(w, year)
		if err != nil {
			t.Fatalf("evolve year %d: %v", year, err)
		}
		if st := p.AdvanceEpochDelta(context.Background(), d); !st.Incremental {
			t.Fatalf("year %d: advance did not take the incremental path", year)
		}
	}
	panics := func(fn func()) (did bool) {
		defer func() { did = recover() != nil }()
		fn()
		return false
	}

	// Two rounds first, so every round below has a spare it could reuse.
	round(1)
	e1 := p.cur.Load()
	round(2)
	pinned := p.cur.Load()
	before, err := epochFriendPages(p, pinned, tok)
	if err != nil {
		t.Fatal(err)
	}
	var id PublicID
	for u, pub := range p.pub {
		if pub != "" && pinned.read.friendVisible[u] && pinned.read.frozen.Degree(socialgraph.UserID(u)) > 0 {
			id = pub
			break
		}
	}
	if id == "" {
		t.Fatal("no visible, non-empty friend list")
	}

	inEmit, resume := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		entered := false
		var mismatch error
		_, eid, err := p.FriendPageFunc(tok, id, 0, func(FriendRef) {
			if entered {
				return
			}
			entered = true
			close(inEmit)
			for last := false; !last; {
				select {
				case <-resume:
					last = true // one more full read after the rounds
				default:
				}
				during, err := epochFriendPages(p, pinned, tok)
				if err == nil && !reflect.DeepEqual(during, before) {
					err = errors.New("pinned epoch's friend pages changed under the pin")
				}
				if err != nil && mismatch == nil {
					mismatch = err
				}
			}
		})
		if err == nil && eid != pinned.seq {
			err = fmt.Errorf("request served by epoch %d, pinned %d", eid, pinned.seq)
		}
		done <- errors.Join(err, mismatch)
	}()

	<-inEmit
	round(3)
	if !panics(func() { e1.read.frozen.Degree(0) }) {
		t.Error("round 3 did not reuse the drained epoch 1's snapshot")
	}
	round(4)
	if pinned.released.Load() {
		t.Fatal("pinned epoch released while a request still pins it")
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !pinned.released.Load() {
		t.Fatal("pinned epoch not released after its last request finished")
	}
	round(5)
	if !panics(func() { pinned.read.frozen.Degree(0) }) {
		t.Fatal("round 5 did not reuse the drained pinned epoch's snapshot")
	}
}

// epochFriendPages reads every page of every stranger-visible friend list
// of epoch e, in ID order.
func epochFriendPages(p *Platform, e *epoch, tok string) ([]string, error) {
	var out []string
	var refs []FriendRef
	emit := func(f FriendRef) { refs = append(refs, f) }
	for u, id := range p.pub {
		if id == "" || !e.read.friendVisible[u] {
			continue
		}
		for page := 0; ; page++ {
			refs = refs[:0]
			more, err := p.friendPage(e, tok, id, page, emit)
			if err != nil {
				return nil, fmt.Errorf("friends of %s, page %d: %w", id, page, err)
			}
			out = append(out, fmt.Sprintf("%s p%d %v more=%v", id, page, refs, more))
			if !more {
				break
			}
		}
	}
	return out, nil
}
